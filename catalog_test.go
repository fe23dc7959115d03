package ccam

// Tests of the store's topology catalog (netfile.Catalog): the one
// node→page placement plus adjacency that the CRR/WCRR gauges, the
// CCAM-QL planner and the background reorganizer all read. Run with
// -race.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// checkCatalog fails the test unless the store's catalog equals a
// fresh file scan.
func checkCatalog(t *testing.T, s *Store) {
	t.Helper()
	if diffs := s.m.File().CheckCatalog(); len(diffs) > 0 {
		t.Fatalf("catalog diverged from a file scan:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestQueryConcurrentWithApply plans NEIGHBORS and PATH statements
// while Apply batches delete and re-insert edges. The planner reads the
// topology catalog the batches rewrite, so under -race any unguarded
// access between the two surfaces here.
func TestQueryConcurrentWithApply(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 4})
	ids := g.NodeIDs()
	edges := g.Edges()
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := ids[rng.Intn(len(ids))]
				stmt := fmt.Sprintf("NEIGHBORS %d DEPTH 2", src)
				if i%2 == 1 {
					stmt = fmt.Sprintf("PATH %d TO %d", src, ids[rng.Intn(len(ids))])
				}
				if _, err := s.Query(ctx, stmt); err != nil && !IsQueryError(err) {
					errCh <- fmt.Errorf("%s: %w", stmt, err)
					return
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 60; i++ {
		e := edges[rng.Intn(len(edges))]
		del := new(Batch).DeleteEdge(e.From, e.To, FirstOrder)
		if err := s.Apply(ctx, del); err != nil {
			t.Fatalf("delete %d->%d: %v", e.From, e.To, err)
		}
		ins := new(Batch).InsertEdge(e.From, e.To, float32(e.Cost), FirstOrder)
		if err := s.Apply(ctx, ins); err != nil {
			t.Fatalf("insert %d->%d: %v", e.From, e.To, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	checkCatalog(t, s)
}

// TestInsertedEdgesWeighOne pins the access weight of mutation-created
// edges: a node inserted with edges costing 7 contributes weight 1 per
// edge to the WCRR gauge, exactly like InsertEdge and reopen.
func TestInsertedEdgesWeighOne(t *testing.T) {
	s, g := obsStore(t)
	ids := g.NodeIDs()
	a, b := ids[0], ids[1]
	node, err := g.Node(a)
	if err != nil {
		t.Fatal(err)
	}
	const id = NodeID(1 << 22)
	op := &InsertOp{
		Rec: &Record{
			ID:    id,
			Pos:   node.Pos,
			Succs: []SuccEntry{{To: a, Cost: 7}},
			Preds: []NodeID{b},
		},
		PredCosts: []float32{7},
	}
	if err := s.Insert(op, FirstOrder); err != nil {
		t.Fatal(err)
	}
	want := g.Clone()
	if err := want.AddNode(Node{ID: id, Pos: node.Pos}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Edge{{From: id, To: a, Cost: 7, Weight: 1}, {From: b, To: id, Cost: 7, Weight: 1}} {
		if err := want.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Metrics().Gauge("ccam_wcrr").Value()
	if exp := s.WCRR(want); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("wcrr gauge = %v, want %v (new edges at weight 1)", got, exp)
	}
	checkCatalog(t, s)
}

// modelCRR is the CRR of placement p over the model's edges.
func modelCRR(m walModel, p Placement) float64 {
	total, same := 0, 0
	for from, succs := range m {
		for to := range succs {
			total++
			if pf, ok := p[from]; ok && pf == p[to] {
				same++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(same) / float64(total)
}

// TestCatalogSurvivesReopen churns a durable store through Apply,
// closes it and reopens it: the catalog rebuilt by OpenPath equals the
// live one edge for edge (weights aside), and the CRR gauge it feeds
// equals a direct recomputation.
func TestCatalogSurvivesReopen(t *testing.T) {
	g := smallTestMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{PageSize: 1024, Path: path, WAL: true, Seed: 5, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := modelFromNetwork(g)
	rng := rand.New(rand.NewSource(23))
	nextID := NodeID(600000)
	for i := 0; i < 30; i++ {
		b, ops := genBatch(rng, model, &nextID)
		if b.Len() == 0 {
			continue
		}
		if err := s.Apply(ctx, b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		model.applyBatch(ops)
	}
	checkCatalog(t, s)
	live := s.m.File().Catalog()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenPath(path, Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkCatalog(t, r)
	if diffs := live.Diff(r.m.File().Catalog()); len(diffs) > 0 {
		t.Fatalf("reopened catalog differs from the live one:\n%s", strings.Join(diffs, "\n"))
	}
	got := r.Metrics().Gauge("ccam_crr").Value()
	if want := modelCRR(model, r.Placement()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("reopened crr gauge = %v, direct = %v", got, want)
	}
}

// TestBackgroundReorgWithoutMetrics checks the reorganizer no longer
// depends on the metrics registry: its trigger reads the catalog.
func TestBackgroundReorgWithoutMetrics(t *testing.T) {
	s, _ := builtStore(t, Options{PageSize: 1024, Seed: 2, BackgroundReorg: true})
	if s.Metrics() != nil {
		t.Fatal("metrics unexpectedly enabled")
	}
	if s.reorg == nil {
		t.Fatal("reorganizer not started")
	}
	s.Poke() // records the high-water mark; must not need the registry
}
