package netfile

import (
	"math"
	"strings"
	"testing"

	"ccam/internal/graph"
)

// checkCatalog fails the test unless f's catalog equals a file scan.
func checkCatalog(t *testing.T, f *File, step string) {
	t.Helper()
	if diffs := f.CheckCatalog(); len(diffs) > 0 {
		t.Fatalf("%s: catalog diverged from a file scan:\n%s", step, strings.Join(diffs, "\n"))
	}
}

// edgeWeight reads the catalog's access weight of edge from→to.
func edgeWeight(t *testing.T, c *Catalog, from, to graph.NodeID) float64 {
	t.Helper()
	c.RLock()
	defer c.RUnlock()
	for _, e := range c.Succs(from) {
		if e.To == to {
			return e.Weight
		}
	}
	t.Fatalf("catalog has no edge %d->%d", from, to)
	return 0
}

// TestCatalogTracksRecordWrites drives every record-write primitive and
// checks the catalog against a file scan after each, plus the access
// weights: relocations keep them, mutation-created edges weigh 1.
func TestCatalogTracksRecordWrites(t *testing.T) {
	g := testNetwork(t)
	for i, e := range g.Edges() {
		if err := g.SetEdgeWeight(e.From, e.To, float64(1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	f := buildFile(t, g, 1024, 64)
	c := f.Catalog()
	checkCatalog(t, f, "bulk load")
	cnt := c.Counters()
	if cnt.Nodes != int64(g.NumNodes()) || cnt.Edges != int64(g.NumEdges()) {
		t.Fatalf("counters %+v, want %d nodes and %d edges", cnt, g.NumNodes(), g.NumEdges())
	}
	if got, want := cnt.CRR(), graph.CRR(g, f.Placement()); got != want {
		t.Fatalf("catalog CRR = %v, direct = %v", got, want)
	}
	c.SetWeights(g)
	wcrr := func(step string) {
		t.Helper()
		if got, want := c.Counters().WCRR(), graph.WCRR(g, f.Placement()); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: catalog WCRR = %v, direct = %v", step, got, want)
		}
	}
	wcrr("set weights")

	// Relocations keep every edge and its weight.
	var e graph.Edge
	for _, e = range g.Edges() {
		if e.Weight > 1 {
			break
		}
	}
	dst, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.MoveRecord(e.From, dst); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, f, "move")
	wcrr("move")
	src, err := f.PageOf(e.To)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.RecordsOnPage(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReplacePageContents(q, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplacePageContents(src, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.FreePage(src); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, f, "replace page contents")
	wcrr("replace page contents")

	// A cost update keeps the weight; a re-created edge weighs 1.
	if err := f.SetEdgeCost(e.From, e.To, 42); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, f, "set edge cost")
	if w := edgeWeight(t, c, e.From, e.To); w != e.Weight {
		t.Fatalf("weight after cost update = %v, want %v", w, e.Weight)
	}
	if err := f.RemoveEdgeRecords(e.From, e.To); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, f, "remove edge")
	if err := f.AddEdgeRecords(e.From, e.To, 3, nil); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, f, "add edge")
	if w := edgeWeight(t, c, e.From, e.To); w != 1 {
		t.Fatalf("re-created edge weighs %v, want 1", w)
	}

	// A deleted node leaves nothing behind once its neighbors are
	// unlinked.
	rec, err := f.DeleteRecord(e.To)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveNeighborLinks(rec); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, f, "delete")
	if got := c.Counters().Nodes; got != int64(g.NumNodes()-1) {
		t.Fatalf("catalog counts %d nodes after delete, want %d", got, g.NumNodes()-1)
	}
	c.RLock()
	_, ok := c.PageOf(e.To)
	c.RUnlock()
	if ok {
		t.Fatalf("deleted node %d still placed", e.To)
	}
}
