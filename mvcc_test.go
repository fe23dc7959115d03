package ccam

// Tests of the facade's MVCC surface: snapshot isolation across
// concurrent durable Apply traffic (checkpoints and WAL prunes
// included), the background incremental reorganizer's CRR recovery,
// and the topology catalog's incremental upkeep. Run with -race.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ccam/internal/netfile"
	"ccam/internal/storage"
)

type edgeKey struct{ from, to NodeID }

// snapCosts reads the cost of each edge through the pinned snapshot.
func snapCosts(t *testing.T, snap *Snapshot, edges []Edge) map[edgeKey]float32 {
	t.Helper()
	out := make(map[edgeKey]float32, len(edges))
	for _, e := range edges {
		rec, err := snap.Find(e.From)
		if err != nil {
			t.Fatalf("snapshot Find(%d): %v", e.From, err)
		}
		found := false
		for _, sc := range rec.Succs {
			if sc.To == e.To {
				out[edgeKey{e.From, e.To}] = sc.Cost
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %d->%d missing from snapshot", e.From, e.To)
		}
	}
	return out
}

// TestSnapshotIsolationUnderConcurrentApply pins a snapshot, then runs
// four writers committing SetEdgeCost batches through the WAL with a
// checkpoint bound small enough that several checkpoints (and WAL
// prunes) fire inside the writers' Apply calls. The pinned reader must
// see its LSN-consistent view to completion: every re-read returns the
// pre-churn costs, a fresh snapshot sees the post-churn ones, and the
// version store drains once the pin is released.
func TestSnapshotIsolationUnderConcurrentApply(t *testing.T) {
	g := smallTestMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 3,
		SyncPolicy: SyncGroupCommit, CheckpointBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()[:16]

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	baseline := snapCosts(t, snap, edges)
	pinnedLSN := snap.LSN()

	const writers, rounds = 4, 30
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + w)))
			for i := 0; i < rounds; i++ {
				b := new(Batch)
				for k := 0; k < 3; k++ {
					e := edges[rng.Intn(len(edges))]
					b.SetEdgeCost(e.From, e.To, baseline[edgeKey{e.From, e.To}]+float32(1+rng.Intn(500)))
				}
				if err := s.Apply(context.Background(), b); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// The pinned reader races the writers: every re-read must return
	// the baseline, no matter how many batches commit, checkpoint and
	// prune the log underneath it.
	for i := 0; i < 100; i++ {
		for k, want := range snapCosts(t, snap, edges) {
			if want != baseline[k] {
				t.Fatalf("iteration %d: pinned snapshot sees edge %d->%d cost %v, want %v",
					i, k.from, k.to, want, baseline[k])
			}
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// An explicit checkpoint (flush + WAL prune) with the pin still
	// held must not free the pinned pre-images either.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k, want := range snapCosts(t, snap, edges) {
		if want != baseline[k] {
			t.Fatalf("after checkpoint: pinned snapshot sees edge %d->%d cost %v, want %v",
				k.from, k.to, want, baseline[k])
		}
	}

	// A final deterministic batch pins down what a fresh snapshot must
	// see; the old pin keeps its view regardless.
	final := new(Batch)
	for _, e := range edges {
		final.SetEdgeCost(e.From, e.To, baseline[edgeKey{e.From, e.To}]+1000)
	}
	if err := s.Apply(context.Background(), final); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.LSN() <= pinnedLSN {
		t.Fatalf("fresh snapshot LSN %d not above pinned %d", fresh.LSN(), pinnedLSN)
	}
	for k, got := range snapCosts(t, fresh, edges) {
		if want := baseline[k] + 1000; got != want {
			t.Fatalf("fresh snapshot sees edge %d->%d cost %v, want %v", k.from, k.to, got, want)
		}
	}
	for k, got := range snapCosts(t, snap, edges) {
		if got != baseline[k] {
			t.Fatalf("pinned snapshot drifted on edge %d->%d: %v, want %v", k.from, k.to, got, baseline[k])
		}
	}

	// Releasing the pins advances the version floor to the newest
	// commit; every retained pre-image must be collected.
	snap.Close()
	fresh.Close()
	f := s.m.File()
	if entries, bytes := f.Pool().VersionStats(); entries != 0 || bytes != 0 {
		t.Fatalf("version store not drained after release: %d entries, %d bytes", entries, bytes)
	}
}

// TestReorganizerRecoversCRR decays the clustering with delete/reinsert
// churn and drives the background reorganizer by hand (Poke): it must
// recover at least half of the CRR the churn destroyed, through
// bounded incremental rounds only.
func TestReorganizerRecoversCRR(t *testing.T) {
	g := testMap(t)
	s, err := Open(Options{
		PageSize: 1024, Seed: 7, Metrics: true,
		BackgroundReorg: true,
		// The timer must not fire mid-test; every round comes from Poke.
		ReorgInterval:    time.Hour,
		ReorgMaxPages:    64,
		ReorgTriggerDrop: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	crr0 := s.CRR(g)
	// The first poke records the post-Build CRR as the high-water mark
	// (and is otherwise a no-op: nothing has decayed yet).
	s.Poke()
	if rounds := s.Metrics().Counter("ccam_reorg_rounds_total").Value(); rounds != 0 {
		t.Fatalf("reorganizer ran %d rounds on an undamaged placement", rounds)
	}

	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(13))
	// Each churn wave inserts foreign nodes wired to random existing
	// nodes — the growth overflows pages, and every split scatters
	// original records — then deletes them again. The map's own edges
	// are untouched, so CRR(g) measures pure placement decay. (Plain
	// delete/reinsert churn would not work: CCAM's connectivity-based
	// insert placement is itself an incremental re-clustering.)
	foreign := NodeID(1 << 20)
	churn := func(k int) {
		start := foreign
		for i := 0; i < k; i++ {
			id := foreign
			foreign++
			anchor := ids[rng.Intn(len(ids))]
			node, err := g.Node(anchor)
			if err != nil {
				t.Fatal(err)
			}
			rec := &Record{
				ID:    id,
				Pos:   node.Pos,
				Succs: []SuccEntry{{To: anchor, Cost: 1}},
				Preds: []NodeID{ids[rng.Intn(len(ids))]},
			}
			if err := s.Insert(&InsertOp{Rec: rec, PredCosts: []float32{1}}, FirstOrder); err != nil {
				t.Fatal(err)
			}
		}
		for id := start; id < foreign; id++ {
			if err := s.Delete(id, FirstOrder); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(len(ids))
	for tries := 0; s.CRR(g) > crr0-0.05 && tries < 6; tries++ {
		churn(len(ids) / 2)
	}
	crr1 := s.CRR(g)
	if crr1 > crr0-0.03 {
		t.Skipf("churn decayed CRR only %.4f -> %.4f; recovery margin too thin to assert", crr0, crr1)
	}

	target := crr1 + 0.5*(crr0-crr1)
	for i := 0; i < 80 && s.CRR(g) < target; i++ {
		s.Poke()
	}
	crr2 := s.CRR(g)
	if crr2 < target {
		t.Fatalf("reorganizer recovered CRR %.4f -> %.4f, want >= %.4f (build %.4f)", crr1, crr2, target, crr0)
	}
	reg := s.Metrics()
	if rounds := reg.Counter("ccam_reorg_rounds_total").Value(); rounds == 0 {
		t.Fatal("recovery asserted but no reorganization rounds ran")
	}
	if pages := reg.Counter("ccam_reorg_pages_total").Value(); pages == 0 {
		t.Fatal("reorganization rounds ran but touched no pages")
	}
	// The store must still hold the exact network after all the churn
	// and re-clustering.
	if s.Len() != g.NumNodes() {
		t.Fatalf("store has %d nodes after reorganization, want %d", s.Len(), g.NumNodes())
	}
}

// TestCatalogIncrementalMatchesRebuild churns the file through Apply —
// every record write updates the file's topology catalog in place —
// and checks the catalog edge for edge against a file scan, then the
// planner statistics it yields against a catalog rebuilt from scratch.
func TestCatalogIncrementalMatchesRebuild(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 9})
	ids := g.NodeIDs()
	ctx := context.Background()
	model := modelFromNetwork(g)
	rng := rand.New(rand.NewSource(17))
	nextID := NodeID(500000)
	for i := 0; i < 40; i++ {
		b, _ := genBatch(rng, model, &nextID)
		if b.Len() == 0 {
			continue
		}
		if err := s.Apply(ctx, b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}

	// The catalog must match the file edge for edge, not just in the
	// aggregate: a relocation mis-folded as a deletion can leave the
	// totals right while the adjacency lists rot.
	checkCatalog(t, s)

	res, err := s.Query(ctx, fmt.Sprintf("EXPLAIN FIND %d", ids[1]))
	if err != nil {
		t.Fatal(err)
	}
	inc := res.Plan.Stats
	f := s.m.File()
	recsByPage := make(map[storage.PageID][]*Record)
	for _, pid := range f.Pages() {
		recs, err := f.RecordsOnPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		recsByPage[pid] = recs
	}
	full := netfile.NewCatalog(recsByPage).Counters()
	n := float64(full.Nodes)
	if inc.Nodes != int(full.Nodes) || inc.Pages != len(recsByPage) {
		t.Fatalf("incremental catalog shape %d nodes/%d pages != rebuilt %d/%d",
			inc.Nodes, inc.Pages, full.Nodes, len(recsByPage))
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"alpha", inc.Alpha, full.CRR()},
		{"avg_a", inc.AvgA, float64(full.Edges) / n},
		{"lambda", inc.Lambda, float64(full.NeighborLen) / n},
		{"gamma", inc.Gamma, n / float64(len(recsByPage))},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("incremental %s = %v, rebuilt = %v", c.name, c.got, c.want)
		}
	}
}
