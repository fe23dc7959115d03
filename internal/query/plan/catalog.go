// Package plan turns a parsed CCAM-QL statement (internal/query/lang)
// into an executable access plan. The planner enumerates the access
// paths the file supports — B+-tree point lookup, spatial-index window
// (Z-range with BIGMIN jumps or R-tree), PAG-ordered sequential page
// scan, and successor expansion — and picks the cheapest by predicted
// data-page accesses.
//
// Predictions come in two strengths, both reported by EXPLAIN. The
// paper's §3 formulas (internal/costmodel), fed with the live CRR/γ/λ
// statistics, give the model cost of the traversal operators. On top
// of that, every structure the prediction needs — node index,
// placement, spatial index, adjacency — is memory resident (the
// paper's assumption), so the planner also resolves the chosen path's
// page set exactly: the headline "predicted data pages" is the number
// of distinct data pages a cold buffer pool would read, which
// execution then validates against the measured ReqStats deltas.
package plan

import (
	"errors"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// Stats is the statistics block of a catalog: the paper's cost-model
// parameters plus the file's shape. It appears verbatim in every plan.
type Stats struct {
	// Alpha is α, the CRR: Pr[Page(i) == Page(j)] for an edge (i, j).
	Alpha float64 `json:"alpha"`
	// AvgA is |A|, the mean successor-list length.
	AvgA float64 `json:"avg_a"`
	// Lambda is λ, the mean neighbor-list length (succs + preds).
	Lambda float64 `json:"lambda"`
	// Gamma is γ, the blocking factor (records per data page).
	Gamma float64 `json:"gamma"`
	// Nodes and Pages are the file's record and data-page counts.
	Nodes int `json:"nodes"`
	Pages int `json:"pages"`
	// Spatial names the secondary spatial index ("zorder", "rtree").
	Spatial string `json:"spatial"`
}

// Catalog is the planner's view of a stored file: the cost-model
// statistics plus the file's topology catalog (placement and
// adjacency, which Build reads under the catalog's read lock) and a
// probe into the spatial index. It holds no copy of the topology, so
// creating one is a handful of divisions.
type Catalog struct {
	Stats Stats

	topo *netfile.Catalog
	// probe visits the spatial index's candidate ids for a window, with
	// zero data-page I/O (netfile SpatialCandidates).
	probe func(rect geom.Rect, fn func(graph.NodeID) bool) error
}

// NewCatalog binds a planner catalog to file f, taking the statistics
// from the running counters of the file's topology catalog — the same
// counters behind the store's ccam_crr gauge, so α matches it.
func NewCatalog(f *netfile.File) (*Catalog, error) {
	if f == nil {
		return nil, errors.New("plan: catalog of a nil file")
	}
	cnt := f.Catalog().Counters()
	st := Stats{
		Alpha:   cnt.CRR(),
		Nodes:   int(cnt.Nodes),
		Pages:   f.NumPages(),
		Spatial: f.SpatialIndexKind().String(),
	}
	if cnt.Nodes > 0 {
		st.AvgA = float64(cnt.Edges) / float64(cnt.Nodes)
		st.Lambda = float64(cnt.NeighborLen) / float64(cnt.Nodes)
	}
	if st.Pages > 0 {
		st.Gamma = float64(st.Nodes) / float64(st.Pages)
	}
	return &Catalog{Stats: st, topo: f.Catalog(), probe: f.SpatialCandidates}, nil
}

// has reports whether the catalog knows node id. Caller holds the
// topology read lock (Build does).
func (c *Catalog) has(id graph.NodeID) bool {
	_, ok := c.topo.PageOf(id)
	return ok
}

// pagesOf counts the distinct data pages of a node set.
func (c *Catalog) pagesOf(ids map[graph.NodeID]bool) int {
	pages := make(map[storage.PageID]bool, len(ids))
	for id := range ids {
		if pid, ok := c.topo.PageOf(id); ok {
			pages[pid] = true
		}
	}
	return len(pages)
}
