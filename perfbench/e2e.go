package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// setupReps is how many times a run sets the store up; setup_s is the
// median, so one slow build does not move it.
const setupReps = 3

// runEndToEnd sets the workload's store up setupReps times, then runs
// closed-loop rounds for p.seconds and reports the end-to-end metrics.
func runEndToEnd(p params, out *outcome) error {
	w := p.w
	var (
		s      *served
		wr     *writer
		setups []float64
	)
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		// Drop the previous set-up's store and writer before the next
		// one samples its heap base.
		s, wr = nil, nil
		var err error
		s, err = setUp(w, dirFor(p, fmt.Sprintf("setup-%d", rep)), func(s *served) error {
			if w.batchesPerRound > 0 {
				wr = newWriter(s.g, s.ids, p.seed)
			}
			return warmUp(s, w, wr, p.seed)
		})
		if err != nil {
			return err
		}
		setups = append(setups, s.setupS())
	}
	out.set("setup_s", median(setups), "s")
	out.set("heap_mib", float64(liveHeap()-s.heapBase)/(1<<20), "MiB")
	fmt.Printf("setup: map %.3fs build+flush %.3fs serve+warm %.3fs (last of %d); nodes %d, data pages %d, pool pages %d\n",
		s.mapS, s.buildS, s.warmS, setupReps, s.st.Len(), s.st.NumPages(), w.pool)
	fmt.Printf("loadgen: 50us sleep returns %.0fus late (median of 200)\n", timerLateUS())

	k := &checker{g: s.g}
	if wr != nil {
		k.model = wr.model
	}
	io0 := s.st.IO()
	var err error
	if wr != nil {
		err = mixedRounds(p, s, k, wr, out)
	} else {
		err = readRounds(p, s, k, out)
	}
	if err != nil {
		return err
	}
	io := s.st.IO().Sub(io0)
	fmt.Printf("storage: %d page reads, %d page writes in the timed phase\n", io.Reads, io.Writes)

	if wr != nil {
		if err := verifyWrites(s, k, wr, out); err != nil {
			return err
		}
	} else {
		n, err := s.storeBytes()
		if err != nil {
			return err
		}
		out.set("store_mib", float64(n)/(1<<20), "MiB")
	}
	canaryOK, err := canary(s, k)
	if err != nil {
		return err
	}
	out.Correct = out.Failed == 0 && canaryOK
	return nil
}

// warmUp issues every request kind of the workload once, so lazy state
// such as the planner catalog is built before timing. (Build leaves
// the whole hot-point map resident in its pool.)
func warmUp(s *served, w *workload, wr *writer, seed int64) error {
	cs, err := s.dial(1)
	if err != nil {
		return err
	}
	defer closeAll(cs)
	ctx := context.Background()
	k := &checker{g: s.g}
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	switch w.name {
	case "hot-point":
		for !coversKinds(reqs, kindFind, kindSuccessors, kindEvalRoute) {
			r, err := hotPointReq(s.g, s.ids, w.routeHops, rng)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	case "cold-query":
		for !coversKinds(reqs, kindRoute, kindNeighbors, kindPath) {
			r, err := coldQueryReq(s.g, s.ids, w.routeHops, rng)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	default:
		b, err := wr.next()
		if err != nil {
			return err
		}
		k.model = wr.model
		reqs = append(reqs, b)
		id := b.route[0]
		reqs = append(reqs, request{kind: kindFind, id: id}, request{kind: kindSuccessors, id: id},
			request{kind: kindNeighbors, id: id, stmt: fmt.Sprintf("NEIGHBORS %d DEPTH 1 AGG SUM(cost)", id)})
	}
	for i := range reqs {
		if err := k.do(ctx, cs[0], &reqs[i]); err != nil {
			return fmt.Errorf("%s: %w", reqs[i].kind, err)
		}
	}
	return nil
}

func coversKinds(reqs []request, kinds ...reqKind) bool {
	for _, want := range kinds {
		found := false
		for _, r := range reqs {
			found = found || r.kind == want
		}
		if !found {
			return false
		}
	}
	return true
}

// readRounds runs the read-only workloads: every round, each
// connection runs the next perRound requests of its stream.
func readRounds(p params, s *served, k *checker, out *outcome) error {
	w := p.w
	genStart := time.Now()
	streams := make([][]request, loadConns)
	for c := range streams {
		var err error
		if streams[c], err = stream(w, s.g, s.ids, p.seed, c); err != nil {
			return err
		}
	}
	fmt.Printf("requests: %d per connection generated in %.2fs\n", w.streamLen, time.Since(genStart).Seconds())
	cs, err := s.dial(loadConns)
	if err != nil {
		return err
	}
	defer closeAll(cs)
	tallies := make([]tally, loadConns)
	var rs rounds
	ctx := context.Background()
	deadline := time.Now().Add(time.Duration(p.seconds) * time.Second)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var wg sync.WaitGroup
		elapsed := make([]time.Duration, loadConns)
		for c := range cs {
			reqs := make([]request, w.perRound)
			for i := range reqs {
				reqs[i] = streams[c][(round*w.perRound+i)%len(streams[c])]
			}
			tallies[c].lat.us = tallies[c].lat.us[:0]
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				elapsed[c] = tallies[c].loop(ctx, k, cs[c], reqs)
			}(c)
		}
		wg.Wait()
		var lat []float64
		for c := range tallies {
			lat = append(lat, tallies[c].lat.us...)
		}
		if err := rs.add(float64(loadConns*w.perRound)/maxDur(elapsed).Seconds(), lat); err != nil {
			return err
		}
	}
	for c := range tallies {
		out.count(&tallies[c])
	}
	reportReads(out, &rs)
	return nil
}

// reportReads sets the read metrics: each the median over rounds.
func reportReads(out *outcome, rs *rounds) {
	out.set("read_ops_per_s", median(rs.rate), "1/s")
	out.set("read_p50_us", median(rs.p50), "us")
	out.set("read_p99_us", median(rs.p99), "us")
	fmt.Printf("reads: %d samples over %d rounds; each round >= 1000 samples, so p99 has >= 10 beyond\n", rs.samples, len(rs.rate))
	fmt.Printf("read rate per round: %.0f\n", rs.rate)
	fmt.Printf("read p99 per round: %.0f\n", rs.p99)
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// mixedRounds runs mixed-write: per round the writer connection sends
// batchesPerRound Apply batches back to back while the reader
// connection reads perRound times, each read on a node of a batch the
// writer sends in the same round.
func mixedRounds(p params, s *served, k *checker, wr *writer, out *outcome) error {
	w := p.w
	cs, err := s.dial(2)
	if err != nil {
		return err
	}
	defer closeAll(cs)
	var wt, rt tally
	var writeRates []float64
	var rs rounds
	rng := rand.New(rand.NewSource(p.seed*31 + 7))
	ctx := context.Background()
	deadline := time.Now().Add(time.Duration(p.seconds) * time.Second)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		batches := make([]request, w.batchesPerRound)
		for i := range batches {
			if batches[i], err = wr.next(); err != nil {
				return err
			}
		}
		reads := make([]request, w.perRound)
		for i := range reads {
			reads[i] = readerReq(batches[i*len(batches)/len(reads)].route, rng)
		}
		rt.lat.us = rt.lat.us[:0]
		var wd, rd time.Duration
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); wd = wt.loop(ctx, k, cs[0], batches) }()
		go func() { defer wg.Done(); rd = rt.loop(ctx, k, cs[1], reads) }()
		wg.Wait()
		writeRates = append(writeRates, float64(len(batches)*batchOps)/wd.Seconds())
		if err := rs.add(float64(len(reads))/rd.Seconds(), rt.lat.us); err != nil {
			return err
		}
		if round+1 == storeRounds {
			if err := setStoreMiB(s, out); err != nil {
				return err
			}
		}
	}
	if _, ok := out.Metrics["store_mib"]; !ok {
		fmt.Printf("store: read after %d rounds, fewer than %d\n", len(writeRates), storeRounds)
		if err := setStoreMiB(s, out); err != nil {
			return err
		}
	}
	out.count(&wt)
	out.count(&rt)
	// Writes are printed, not returned: the result carries the same
	// metrics on every workload, and the others have no writes.
	p50, p99, _ := wt.lat.summary()
	fmt.Printf("writes: %d batches of %d ops over %d rounds: write_ops_per_s %.1f (median over rounds), write_p50_us %.1f, write_p99_us %.1f\n",
		len(wt.lat.us), batchOps, len(writeRates), median(writeRates), p50, p99)
	reportReads(out, &rs)
	return nil
}

// storeRounds is the mixed-write round after which store_mib is read:
// the data file grows with the batches applied, so it is read after a
// fixed 10,000 batches rather than after however many a run completes.
const storeRounds = 40

// setStoreMiB checkpoints twice and reads the store's size. The log
// keeps its last checkpoint, which images every page dirty at that
// moment; the second, empty checkpoint prunes it, so the size does not
// depend on where in a checkpoint cycle the writer stood.
func setStoreMiB(s *served, out *outcome) error {
	for i := 0; i < 2; i++ {
		if err := s.st.Checkpoint(); err != nil {
			return err
		}
	}
	n, err := s.storeBytes()
	if err != nil {
		return err
	}
	out.set("store_mib", float64(n)/(1<<20), "MiB")
	return nil
}

// verifyWrites checks the store after the last batch committed: every
// edge cost reads back as last written, only the newest temporary
// edge and node remain, and the node count is the map's plus one.
func verifyWrites(s *served, k *checker, wr *writer, out *outcome) error {
	cs, err := s.dial(1)
	if err != nil {
		return err
	}
	defer closeAll(cs)
	ctx := context.Background()
	var t tally
	check := func(what string, err error) {
		t.attempted++
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("after writes, %s: %w", what, err)
			}
		}
	}
	final := &checker{g: s.g, model: &writeModel{
		costs:     make(map[edgeKey][]float32, len(wr.model.costs)),
		tempEdges: map[edgeKey]float32{keyOf(wr.lastEdge[0], wr.lastEdge[1]): 0},
		firstTemp: wr.tempID(wr.n - 1),
	}}
	for e, hist := range wr.model.costs {
		final.model.costs[e] = hist[len(hist)-1:]
	}
	for _, id := range s.ids {
		rec, err := cs[0].Find(ctx, id)
		if err == nil {
			err = final.exact(rec, id)
		}
		check(fmt.Sprintf("find %d", id), err)
	}
	_, err = cs[0].Find(ctx, wr.tempID(wr.n-1))
	check("newest inserted node", err)
	for b := max(0, wr.n-64); b < wr.n-1; b++ {
		ok, err := cs[0].Has(ctx, wr.tempID(b))
		if err == nil && ok {
			err = fmt.Errorf("node %d still present", wr.tempID(b))
		}
		check("deleted node", err)
	}
	if got, want := s.st.Len(), len(s.ids)+1; got != want {
		check("node count", fmt.Errorf("%d nodes, want %d", got, want))
	} else {
		check("node count", nil)
	}
	out.count(&t)
	return nil
}

// exact checks a record against the final model: each edge carries its
// last written cost and the only temporary successors are the newest
// edge and node.
func (k *checker) exact(rec *netfile.Record, id graph.NodeID) error {
	if err := k.record(rec, id); err != nil {
		return err
	}
	for _, sc := range rec.Succs {
		if cs, ok := k.model.costs[keyOf(id, sc.To)]; ok && sc.Cost != cs[0] {
			return fmt.Errorf("edge %d->%d: cost %v, last written %v", id, sc.To, sc.Cost, cs[0])
		}
	}
	return nil
}

// canary sends a real route and checks it against a deliberately wrong
// expected value; the checker must reject it. It is not counted in
// attempted or failed.
func canary(s *served, k *checker) (bool, error) {
	cs, err := s.dial(1)
	if err != nil {
		return false, err
	}
	defer closeAll(cs)
	r, err := walk(s.g, s.ids, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		return false, err
	}
	want, err := routeCost(s.g, r)
	if err != nil {
		return false, err
	}
	wrong := request{kind: kindEvalRoute, route: r, want: want + 1}
	if err := k.do(context.Background(), cs[0], &wrong); err == nil {
		fmt.Println("canary: a wrong expected value passed the checker")
		return false, nil
	}
	return true, nil
}
