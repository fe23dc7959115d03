package netfile

import (
	"fmt"
	"sort"
	"sync"

	"ccam/internal/graph"
	"ccam/internal/storage"
)

// Catalog is the file's topology catalog: which page each node lives
// on plus the adjacency between nodes, kept in memory next to the node
// index. Everything the paper's clustering metric (CRR, WCRR) and its
// §3 cost-model inputs (α, |A|, λ, γ) need is a division over its
// running counters, so the gauges, the CCAM-QL planner and the
// background reorganizer all read this one structure.
//
// The file maintains it at its record-write sites (InsertRecordAt,
// UpdateRecord, DeleteRecord, MoveRecord, ReplacePageContents): each
// write diffs the record's old successor list against the new one. The
// catalog therefore equals a file scan by construction, whatever
// issued the write — a batch, a direct operation, WAL replay or the
// reorganizer. A relocation keeps the node's edges and their access
// weights; an edge created by a mutation weighs 1.
//
// Writers (the file's serialized mutators) hold the write lock per
// update. Readers take the read lock: the counter accessors lock for
// themselves, while PageOf and Succs expect the caller to hold RLock
// across a multi-step read such as a plan.
type Catalog struct {
	mu    sync.RWMutex
	nodes map[graph.NodeID]catNode
	pages map[storage.PageID]pageTally
	cnt   CatalogCounters
}

// CatalogEdge is one successor-list entry: the successor, the stored
// edge cost (float32, the record's precision, so a Dijkstra over the
// catalog accumulates distances exactly like the executor) and the
// edge's access weight for WCRR.
type CatalogEdge struct {
	To     graph.NodeID
	Cost   float32
	Weight float64
}

// catNode is one node's entry. A node that is not stored but still
// named by a stored successor list (inside a delete, before the
// neighbors are unlinked) keeps an entry with page InvalidPageID so its
// predecessor index survives.
type catNode struct {
	page storage.PageID
	// npred is the length of the stored record's predecessor list.
	npred uint32
	succs []CatalogEdge
	// preds is the reverse index of succs: every node whose successor
	// list names this one.
	preds []graph.NodeID
}

// pageTally counts the edges incident to one page and how many of
// them are split (cross to another page).
type pageTally struct{ edges, split int64 }

// CatalogCounters are the catalog's running sums.
type CatalogCounters struct {
	// Nodes is the number of stored records.
	Nodes int64
	// Edges counts successor-list entries and SamePage those whose two
	// endpoints share a page.
	Edges, SamePage int64
	// NeighborLen sums the successor- and predecessor-list lengths of
	// every stored record.
	NeighborLen int64
	// Weight and SameWeight are Edges and SamePage weighted by access
	// weight.
	Weight, SameWeight float64
}

// CRR returns the connectivity residue ratio: the fraction of edges
// whose endpoints share a page (0 without edges).
func (c CatalogCounters) CRR() float64 {
	if c.Edges == 0 {
		return 0
	}
	return float64(c.SamePage) / float64(c.Edges)
}

// WCRR returns the weighted connectivity residue ratio (0 without
// edges).
func (c CatalogCounters) WCRR() float64 {
	if c.Weight == 0 {
		return 0
	}
	return c.SameWeight / c.Weight
}

// NewCatalog builds a catalog from every stored record grouped by
// page, with all access weights 1. Build and open both call it with
// the records they have already decoded.
func NewCatalog(recsByPage map[storage.PageID][]*Record) *Catalog {
	n := 0
	for _, recs := range recsByPage {
		n += len(recs)
	}
	c := &Catalog{
		nodes: make(map[graph.NodeID]catNode, n),
		pages: make(map[storage.PageID]pageTally, len(recsByPage)),
	}
	for pid, recs := range recsByPage {
		for _, r := range recs {
			c.nodes[r.ID] = catNode{page: pid, npred: uint32(len(r.Preds)), preds: make([]graph.NodeID, 0, len(r.Preds))}
			c.cnt.Nodes++
			c.cnt.NeighborLen += int64(len(r.Succs) + len(r.Preds))
		}
	}
	for pid, recs := range recsByPage {
		for _, r := range recs {
			es := make([]CatalogEdge, len(r.Succs))
			for i, s := range r.Succs {
				es[i] = CatalogEdge{To: s.To, Cost: s.Cost, Weight: 1}
				c.addPred(s.To, r.ID)
				c.charge(pid, c.pageOf(s.To), 1, 1)
			}
			nd := c.nodes[r.ID]
			nd.succs = es
			c.nodes[r.ID] = nd
		}
	}
	return c
}

// Counters returns the running sums.
func (c *Catalog) Counters() CatalogCounters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cnt
}

// RLock and RUnlock bracket a multi-step read (PageOf, Succs).
func (c *Catalog) RLock()   { c.mu.RLock() }
func (c *Catalog) RUnlock() { c.mu.RUnlock() }

// PageOf returns the page holding node id. Caller holds RLock.
func (c *Catalog) PageOf(id graph.NodeID) (storage.PageID, bool) {
	pid := c.pageOf(id)
	return pid, pid != storage.InvalidPageID
}

// Succs returns node id's successor list in record order. The slice
// belongs to the catalog: read it only under RLock, never modify it.
func (c *Catalog) Succs(id graph.NodeID) []CatalogEdge { return c.nodes[id].succs }

// SetWeights sets the access weight of every stored edge that g also
// has to g's weight (non-positive weights count as 1), then re-derives
// the weighted sums. The store calls it after building from g; records
// do not carry weights, so edges created later, and every edge after a
// reopen, weigh 1.
func (c *Catalog) SetWeights(g *graph.Network) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cnt.Weight, c.cnt.SameWeight = 0, 0
	for id, nd := range c.nodes {
		for i := range nd.succs {
			e := &nd.succs[i]
			if ge, err := g.Edge(id, e.To); err == nil {
				e.Weight = ge.Weight
				if e.Weight <= 0 {
					e.Weight = 1
				}
			}
			c.cnt.Weight += e.Weight
			if nd.page != storage.InvalidPageID && nd.page == c.pageOf(e.To) {
				c.cnt.SameWeight += e.Weight
			}
		}
	}
}

// WorstPages returns up to n pages ranked by split (cross-page) edge
// count, worst first and by page id among equals; pages without split
// edges are never returned. It is the background reorganizer's target
// list.
func (c *Catalog) WorstPages(n int) []storage.PageID {
	c.mu.RLock()
	out := make([]storage.PageID, 0, len(c.pages))
	for pid, t := range c.pages {
		if t.split > 0 {
			out = append(out, pid)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := c.pages[out[i]].split, c.pages[out[j]].split
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	c.mu.RUnlock()
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// charge adds (sign=+1) or removes (sign=-1) one edge from page pf to
// page pt (InvalidPageID for an endpoint that is not stored) with
// weight w: the totals, the same-page sums, and the tallies of both
// pages.
func (c *Catalog) charge(pf, pt storage.PageID, w float64, sign int64) {
	c.cnt.Edges += sign
	c.cnt.Weight += float64(sign) * w
	same := pf != storage.InvalidPageID && pf == pt
	if same {
		c.cnt.SamePage += sign
		c.cnt.SameWeight += float64(sign) * w
	}
	if pf != storage.InvalidPageID {
		c.tally(pf, sign, !same)
	}
	if pt != storage.InvalidPageID && pt != pf {
		c.tally(pt, sign, true)
	}
}

func (c *Catalog) tally(pid storage.PageID, sign int64, split bool) {
	t := c.pages[pid]
	t.edges += sign
	if split {
		t.split += sign
	}
	if t.edges <= 0 && t.split <= 0 {
		delete(c.pages, pid)
		return
	}
	c.pages[pid] = t
}

// pageOf returns node id's page, InvalidPageID when it is not stored.
func (c *Catalog) pageOf(id graph.NodeID) storage.PageID {
	if nd, ok := c.nodes[id]; ok {
		return nd.page
	}
	return storage.InvalidPageID
}

func (c *Catalog) addPred(to, from graph.NodeID) {
	nd, ok := c.nodes[to]
	if !ok {
		nd.page = storage.InvalidPageID
	}
	nd.preds = append(nd.preds, from)
	c.nodes[to] = nd
}

func (c *Catalog) removePred(to, from graph.NodeID) {
	nd := c.nodes[to]
	for i, p := range nd.preds {
		if p == from {
			nd.preds = append(nd.preds[:i], nd.preds[i+1:]...)
			break
		}
	}
	c.store(to, nd)
}

// store writes nd back, dropping the entry of an unstored node that no
// successor list names any more.
func (c *Catalog) store(id graph.NodeID, nd catNode) {
	if nd.page == storage.InvalidPageID && len(nd.preds) == 0 && len(nd.succs) == 0 {
		delete(c.nodes, id)
		return
	}
	c.nodes[id] = nd
}

// weightOf returns the access weight of edge from→to (1 if absent).
func (c *Catalog) weightOf(from, to graph.NodeID) float64 {
	for _, e := range c.nodes[from].succs {
		if e.To == to {
			return e.Weight
		}
	}
	return 1
}

// place moves node id, whose entry is nd, to page pid (InvalidPageID:
// no longer stored), re-charging its incident edges across the move,
// and returns the updated entry.
func (c *Catalog) place(id graph.NodeID, nd catNode, pid storage.PageID) catNode {
	old := nd.page
	if old == pid {
		return nd
	}
	for _, e := range nd.succs {
		c.charge(old, c.pageOf(e.To), e.Weight, -1)
		c.charge(pid, c.pageOf(e.To), e.Weight, 1)
	}
	for _, p := range nd.preds {
		w := c.weightOf(p, id)
		c.charge(c.pageOf(p), old, w, -1)
		c.charge(c.pageOf(p), pid, w, 1)
	}
	switch {
	case old == storage.InvalidPageID:
		c.cnt.Nodes++
	case pid == storage.InvalidPageID:
		c.cnt.Nodes--
	}
	nd.page = pid
	c.nodes[id] = nd
	return nd
}

// put records that rec is now stored on page pid: the node moves there
// and its successor list becomes rec's. Edges the old list already had
// keep their weight; new ones weigh 1.
func (c *Catalog) put(rec *Record, pid storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := rec.ID
	nd, ok := c.nodes[id]
	if !ok {
		nd.page = storage.InvalidPageID
	}
	nd = c.place(id, nd, pid)
	c.cnt.NeighborLen += int64(len(rec.Succs)+len(rec.Preds)) - int64(len(nd.succs)) - int64(nd.npred)
	nd.npred = uint32(len(rec.Preds))
	if sameTargets(nd.succs, rec.Succs) {
		// Cost updates (the common rewrite) touch no counter.
		for i, s := range rec.Succs {
			nd.succs[i].Cost = s.Cost
		}
		c.nodes[id] = nd
		return
	}
	es := make([]CatalogEdge, len(rec.Succs))
	for i, s := range rec.Succs {
		es[i] = CatalogEdge{To: s.To, Cost: s.Cost, Weight: 1}
		for _, o := range nd.succs {
			if o.To == s.To {
				es[i].Weight = o.Weight
				break
			}
		}
	}
	for _, e := range nd.succs {
		c.charge(pid, c.pageOf(e.To), e.Weight, -1)
		c.removePred(e.To, id)
	}
	nd.succs = es
	c.nodes[id] = nd
	for _, e := range es {
		c.addPred(e.To, id)
		c.charge(pid, c.pageOf(e.To), e.Weight, 1)
	}
}

func sameTargets(es []CatalogEdge, ss []SuccEntry) bool {
	if len(es) != len(ss) {
		return false
	}
	for i := range es {
		if es[i].To != ss[i].To {
			return false
		}
	}
	return true
}

// remove records that node id's record was deleted: its successor
// edges go, and edges still naming it count as split until their
// owners are rewritten.
func (c *Catalog) remove(id graph.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nd, ok := c.nodes[id]
	if !ok || nd.page == storage.InvalidPageID {
		return
	}
	c.cnt.NeighborLen -= int64(len(nd.succs)) + int64(nd.npred)
	for _, e := range nd.succs {
		c.charge(nd.page, c.pageOf(e.To), e.Weight, -1)
		c.removePred(e.To, id)
	}
	nd.succs, nd.npred = nil, 0
	c.store(id, c.place(id, nd, storage.InvalidPageID))
}

// CheckCatalog compares the file's catalog with one rebuilt from a
// scan of the stored records and returns the differences (none when
// the catalog is exact).
func (f *File) CheckCatalog() []string {
	recsByPage := make(map[storage.PageID][]*Record)
	for _, pid := range f.Pages() {
		recs, err := f.RecordsOnPage(pid)
		if err != nil {
			return []string{fmt.Sprintf("scan page %d: %v", pid, err)}
		}
		recsByPage[pid] = recs
	}
	return f.cat.Diff(NewCatalog(recsByPage))
}

// Diff compares two catalogs — placement, successor lists (target and
// cost, in order), predecessor and predecessor-list counts, page
// tallies and the unweighted counters — and returns human-readable
// differences, at most a screenful. Access weights are not compared:
// records do not carry them, so a catalog rebuilt from the file has
// none to compare against.
func (c *Catalog) Diff(o *Catalog) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	const maxDiffs = 20
	var out []string
	add := func(format string, args ...any) {
		if len(out) < maxDiffs {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	for id, a := range c.nodes {
		b, ok := o.nodes[id]
		if !ok {
			add("node %d: only in the first catalog", id)
			continue
		}
		if a.page != b.page || a.npred != b.npred || len(a.preds) != len(b.preds) {
			add("node %d: page/npred/preds %d/%d/%d != %d/%d/%d",
				id, a.page, a.npred, len(a.preds), b.page, b.npred, len(b.preds))
		}
		same := len(a.succs) == len(b.succs)
		for i := 0; same && i < len(a.succs); i++ {
			ea, eb := a.succs[i], b.succs[i]
			same = ea.To == eb.To && ea.Cost == eb.Cost
		}
		if !same {
			add("node %d: succs %v != %v", id, a.succs, b.succs)
		}
	}
	for id := range o.nodes {
		if _, ok := c.nodes[id]; !ok {
			add("node %d: only in the second catalog", id)
		}
	}
	if len(c.pages) != len(o.pages) {
		add("page tallies: %d pages != %d", len(c.pages), len(o.pages))
	}
	for pid, t := range c.pages {
		if o.pages[pid] != t {
			add("page %d: tally %+v != %+v", pid, t, o.pages[pid])
		}
	}
	a, b := c.cnt, o.cnt
	a.Weight, a.SameWeight, b.Weight, b.SameWeight = 0, 0, 0, 0
	if a != b {
		add("counters %+v != %+v", a, b)
	}
	return out
}
