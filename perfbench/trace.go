package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"ccam"
	iccam "ccam/internal/ccam"
	"ccam/internal/graph"
	imetrics "ccam/internal/metrics"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/query/exec"
	"ccam/internal/query/lang"
	"ccam/internal/query/plan"
	"ccam/internal/storage"
	"ccam/internal/wire"
)

// The traced run replays a fixed sample of the workload's requests one
// at a time and times each call into a layer from this file: the wire
// codec, the server round trip, the facade (ccam.Store), the CCAM-QL
// parser, planner and executor, and a netfile.File this run builds
// itself through internal/ccam on a recording page store, which
// exposes the node index, the buffer pool and storage. Write rungs
// (Apply, WAL, versions) run a fixed batch sample on every workload.

// probeBatches is the size of the Apply batch sample.
const probeBatches = 64

// traced holds one traced run's state.
type traced struct {
	p   params
	s   *served
	k   *checker
	out *outcome
	rec *recorder
	// sample ids, routes and statements for the per-op rungs.
	ids    []graph.NodeID
	routes []graph.Route
	stmts  []string
	// findNS is facade.find_ns, for facade.self_ns.
	findNS float64
}

func (t *traced) tally(err error) {
	t.out.Attempted++
	if err != nil {
		t.out.Failed++
		if t.out.Failed == 1 {
			fmt.Printf("first failure: %v\n", err)
		}
	}
}

func runTraced(p params, out *outcome) error {
	w := p.w
	out.set("loadgen.timer_late_us", timerLateUS(), "us")
	var wr *writer
	s, err := setUp(w, dirFor(p, "served"), func(s *served) error {
		if w.batchesPerRound > 0 {
			wr = newWriter(s.g, s.ids, p.seed)
		}
		return warmUp(s, w, wr, p.seed)
	})
	if err != nil {
		return err
	}
	defer s.close()
	out.set("facade.heap_b_per_node", float64(liveHeap()-s.heapBase)/float64(s.st.Len()), "B")
	out.set("build.map_s", s.mapS, "s")
	out.set("build.warm_s", s.warmS, "s")

	t := &traced{p: p, s: s, k: &checker{g: s.g}, out: out, rec: newRecorder(true)}
	if wr != nil {
		t.k.model = wr.model
	} else {
		// The read-only workloads write only after every read rung, so
		// their reads are checked exactly.
		wr = newWriter(s.g, s.ids, p.seed)
	}
	batches := make([]request, probeBatches)
	for i := range batches {
		if batches[i], err = wr.next(); err != nil {
			return err
		}
	}
	reads, err := t.sample(batches)
	if err != nil {
		return err
	}
	if err := t.wireRungs(reads); err != nil {
		return err
	}
	if err := t.facadeRungs(); err != nil {
		return err
	}
	bf, err := buildBenchFile(s.g, w.pool, dirFor(p, "bench"), out)
	if err != nil {
		return err
	}
	defer bf.rs.Close()
	if err := t.queryRungs(bf); err != nil {
		return err
	}
	if err := t.netfileRungs(bf, reads); err != nil {
		return err
	}
	if err := t.writeRungs(batches); err != nil {
		return err
	}
	if err := t.versionRung(bf, newWriter(s.g, s.ids, p.seed+1)); err != nil {
		return err
	}
	out.Correct = out.Failed == 0
	return writeSpans(filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, p.seed)), t.rec.spans)
}

// sample draws the read sample and the per-op inputs.
func (t *traced) sample(batches []request) ([]request, error) {
	w, s := t.p.w, t.s
	n := w.traceReads
	var reads []request
	if w.batchesPerRound > 0 {
		rng := rand.New(rand.NewSource(t.p.seed*31 + 7))
		for i := 0; i < n; i++ {
			reads = append(reads, readerReq(batches[i*len(batches)/n].route, rng))
		}
	} else {
		st, err := stream(w, s.g, s.ids, t.p.seed, 0)
		if err != nil {
			return nil, err
		}
		reads = st[:n]
	}
	rng := rand.New(rand.NewSource(t.p.seed*17 + 3))
	for i := 0; i < 500; i++ {
		t.ids = append(t.ids, s.ids[rng.Intn(len(s.ids))])
	}
	for i := 0; i < 200; i++ {
		r, err := walk(s.g, s.ids, w.routeHops, rng)
		if err != nil {
			return nil, err
		}
		t.routes = append(t.routes, r)
	}
	for _, r := range reads {
		if r.stmt != "" {
			t.stmts = append(t.stmts, r.stmt)
		}
	}
	if len(t.stmts) == 0 {
		for _, id := range t.ids[:200] {
			t.stmts = append(t.stmts, fmt.Sprintf("NEIGHBORS %d DEPTH 1 AGG SUM(cost)", id))
		}
	}
	return reads, nil
}

// rawConn speaks the binary protocol frame by frame, so the codec and
// the round trip can be timed apart.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 16<<10), bw: bufio.NewWriterSize(c, 16<<10)}, nil
}

func (c *rawConn) roundTrip(payload []byte) ([]byte, error) {
	if err := wire.WriteFrame(c.bw, payload); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return wire.ReadFrame(c.br)
}

func opOf(r *request) (wire.Op, []byte) {
	switch r.kind {
	case kindFind:
		return wire.OpFind, wire.EncodeIDBody(r.id)
	case kindSuccessors:
		return wire.OpGetSuccessors, wire.EncodeIDBody(r.id)
	case kindEvalRoute:
		return wire.OpEvaluateRoute, wire.EncodeIDsBody(r.route)
	}
	return wire.OpQuery, wire.EncodeQueryBody(r.stmt, false)
}

func encodeReq(id uint32, r *request) []byte {
	op, body := opOf(r)
	return wire.EncodeRequestHeader(wire.ReqHeader{ID: id, Op: op}, body)
}

// decodeReq is the server's side of the request codec.
func decodeReq(payload []byte) error {
	h, body, err := wire.DecodeRequestHeader(payload)
	if err != nil {
		return err
	}
	switch h.Op {
	case wire.OpFind, wire.OpGetSuccessors:
		_, err = wire.DecodeIDBody(body)
	case wire.OpEvaluateRoute:
		_, _, err = wire.DecodeIDsBody(body)
	default:
		_, _, err = wire.DecodeQueryBody(body)
	}
	return err
}

// encodeResp is the server's side of the response codec.
func encodeResp(id uint32, r *request, a answer) ([]byte, error) {
	var body []byte
	switch r.kind {
	case kindFind:
		body = wire.EncodeRecordBody(a.rec)
	case kindSuccessors:
		body = wire.EncodeRecordsBody(a.recs)
	case kindEvalRoute:
		body = wire.EncodeAggBody(a.agg)
	default:
		var err error
		if body, err = wire.EncodeResultBody(a.res); err != nil {
			return nil, err
		}
	}
	return wire.EncodeOKResponse(id, body), nil
}

func decodeResp(r *request, payload []byte) (a answer, err error) {
	_, body, _, err := wire.DecodeResponseStats(payload)
	if err != nil {
		return a, err
	}
	switch r.kind {
	case kindFind:
		a.rec, err = wire.DecodeRecordBody(body)
	case kindSuccessors:
		a.recs, err = wire.DecodeRecordsBody(body)
	case kindEvalRoute:
		a.agg, err = wire.DecodeAggBody(body)
	default:
		a.res, err = wire.DecodeResultBody(body)
	}
	return a, err
}

// facadeCall runs r directly on the store.
func facadeCall(st *ccam.Store, r *request) (a answer, err error) {
	ctx := context.Background()
	switch r.kind {
	case kindFind:
		a.rec, err = st.Find(ctx, r.id)
	case kindSuccessors:
		a.recs, err = st.GetSuccessors(ctx, r.id)
	case kindEvalRoute:
		a.agg, err = st.EvaluateRoute(ctx, r.route)
	default:
		a.res, err = st.Query(ctx, r.stmt)
	}
	return a, err
}

// replay sends reads one at a time over a raw connection and returns
// each client round trip (encode, transport, decode) in ns. When spans
// is true every request also gets the server-side codec and a direct
// facade call, each in its own span under the request's root.
func (t *traced) replay(c *rawConn, reads []request, spans bool) ([]float64, [][]byte, error) {
	rec := t.rec
	if !spans {
		rec = newRecorder(false)
	}
	rtts := make([]float64, len(reads))
	resps := make([][]byte, len(reads))
	for i := range reads {
		r := &reads[i]
		id := uint32(i + 1)
		root := rec.begin("request", i, -1)
		start := time.Now()
		cl := rec.begin("client", i, root)
		sp := rec.begin("wire.req_encode", i, cl)
		payload := encodeReq(id, r)
		rec.end(sp)
		sp = rec.begin("server.transport", i, cl)
		resp, err := c.roundTrip(payload)
		rec.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = rec.begin("wire.resp_decode", i, cl)
		a, err := decodeResp(r, resp)
		rec.end(sp)
		rec.end(cl)
		rtts[i] = float64(time.Since(start).Nanoseconds())
		resps[i] = resp
		if err == nil {
			err = t.k.check(r, a)
		}
		t.tally(err)
		if spans {
			sp = rec.begin("wire.req_decode", i, root)
			err = decodeReq(payload)
			rec.end(sp)
			if err != nil {
				return nil, nil, err
			}
			sp = rec.begin("facade."+r.kind.String(), i, root)
			a, err := facadeCall(t.s.st, r)
			rec.end(sp)
			if err == nil {
				err = t.k.check(r, a)
			}
			t.tally(err)
			sp = rec.begin("wire.resp_encode", i, root)
			_, err = encodeResp(id, r, a)
			rec.end(sp)
			if err != nil {
				return nil, nil, err
			}
		}
		rec.end(root)
	}
	return rtts, resps, nil
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// cpuSeconds reads the GC and total CPU time of the process.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// wireRungs measures the client round trip untraced and traced, the
// codec, the transport floor and the per-request account of the
// served store.
func (t *traced) wireRungs(reads []request) error {
	out, st := t.out, t.s.st
	c, err := dialRaw(t.s.addr)
	if err != nil {
		return err
	}
	defer c.c.Close()
	reg := st.Metrics()
	issued0 := reg.Counter("ccam_buffer_prefetch_issued_total").Value()
	useful0 := reg.Counter("ccam_buffer_prefetch_useful_total").Value()
	io0, ms0 := st.IO(), memStats()
	gc0, cpu0 := cpuSeconds()
	plain, resps, err := t.replay(c, reads, false)
	if err != nil {
		return err
	}
	ms1, io1 := memStats(), st.IO()
	n := float64(len(reads))
	out.set("runtime.alloc_b_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B")
	out.set("storage.reads_per_op", float64(io1.Reads-io0.Reads)/n, "count")
	// The runtime updates its CPU classes when a GC cycle ends, and one
	// pass over the sample may complete none, so the replay repeats
	// until two cycles have ended (at most 20 passes).
	for pass := 1; pass < 20 && memStats().NumGC-ms0.NumGC < 2; pass++ {
		if _, _, err := t.replay(c, reads, false); err != nil {
			return err
		}
	}
	gc1, cpu1 := cpuSeconds()
	out.set("runtime.gc_cpu_frac", ratio(gc1-gc0, cpu1-cpu0), "ratio")
	issued := reg.Counter("ccam_buffer_prefetch_issued_total").Value() - issued0
	useful := reg.Counter("ccam_buffer_prefetch_useful_total").Value() - useful0
	out.set("buffer.prefetch_issued_per_op", float64(issued)/n, "count")
	out.set("buffer.prefetch_useful_ratio", ratio(float64(useful), float64(issued)), "ratio")
	var respBytes int
	for _, b := range resps {
		respBytes += len(b)
	}
	out.set("wire.resp_bytes_per_op", float64(respBytes)/n, "B")

	tracedRTT, _, err := t.replay(c, reads, true)
	if err != nil {
		return err
	}
	out.set("trace.overhead_frac", median(tracedRTT)/median(plain)-1, "ratio")

	// The transport and dispatch floor: empty pings.
	pings := make([]float64, 500)
	ping := wire.EncodeRequestHeader(wire.ReqHeader{ID: 1, Op: wire.OpPing}, nil)
	for i := range pings {
		start := time.Now()
		resp, err := c.roundTrip(ping)
		if err == nil {
			_, _, _, err = wire.DecodeResponseStats(resp)
		}
		if err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		pings[i] = float64(time.Since(start).Nanoseconds())
	}
	pingNS := median(pings)
	out.set("server.ping_us", pingNS/1e3, "us")
	out.set("server.shed", float64(t.s.srv.Stats().Sheds), "count")

	tot := totals(t.rec.spans)
	mean := func(name string) float64 { return float64(tot[name][1]) / float64(max(1, tot[name][0])) }
	for _, name := range []string{"req_encode", "req_decode", "resp_encode", "resp_decode"} {
		out.set("wire."+name+"_ns", mean("wire."+name), "ns")
	}
	facadeNS := float64(sumPrefix(tot, "facade.")) / n
	codecNS := mean("wire.req_encode") + mean("wire.req_decode") + mean("wire.resp_encode") + mean("wire.resp_decode")
	out.set("server.self_us", (mean("client")-facadeNS-codecNS)/1e3, "us")
	out.set("trace.unattributed_frac", unattributed(t.rec.spans, pingNS), "ratio")

	// Codec allocations, on the requests and replies just exchanged.
	ms0 = memStats()
	for i := range reads {
		r := &reads[i]
		payload := encodeReq(uint32(i+1), r)
		if err := decodeReq(payload); err != nil {
			return err
		}
		a, err := decodeResp(r, resps[i])
		if err != nil {
			return err
		}
		if _, err := encodeResp(uint32(i+1), r, a); err != nil {
			return err
		}
	}
	ms1 = memStats()
	out.set("wire.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumPrefix(tot map[string][2]int64, prefix string) int64 {
	var s int64
	for name, v := range tot {
		if strings.HasPrefix(name, prefix) {
			s += v[1]
		}
	}
	return s
}

// unattributed is the share of client round-trip time that no layer's
// self time accounts for. Inside the round trip the layers are the
// client codec, the server codec, the facade call and the transport
// and dispatch floor (pingNS per request).
func unattributed(spans []span, pingNS float64) float64 {
	self := selfTimes(spans)
	tot := totals(spans)
	client := float64(tot["client"][1])
	if client == 0 {
		return 0
	}
	layers := float64(self["wire.req_encode"]+self["wire.resp_decode"]+self["wire.req_decode"]+self["wire.resp_encode"]) +
		float64(sumPrefix(tot, "facade.")) + pingNS*float64(tot["client"][0])
	return (client - layers) / client
}

// timeEach runs fn over n inputs and returns the mean ns and
// allocations per call; every call counts as an attempt.
func (t *traced) timeEach(n int, fn func(i int) error) (ns, allocs float64) {
	var errs []error
	ms0 := memStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			errs = append(errs, err)
		}
	}
	el := time.Since(start)
	ms1 := memStats()
	t.out.Attempted += n - len(errs)
	for _, err := range errs {
		t.tally(err)
	}
	return float64(el.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// facadeRungs times each facade operation directly on the served
// store, and Find on an otherwise identical store without metrics or
// tracing.
func (t *traced) facadeRungs() error {
	st, k, ctx := t.s.st, t.k, context.Background()
	rung := func(op string, n int, fn func(int) error) float64 {
		ns, allocs := t.timeEach(n, fn)
		t.out.set("facade."+op+"_ns", ns, "ns")
		t.out.set("facade."+op+"_allocs", allocs, "count")
		return ns
	}
	t.findNS = rung("find", len(t.ids), func(i int) error {
		rec, err := st.Find(ctx, t.ids[i])
		if err != nil {
			return err
		}
		return k.record(rec, t.ids[i])
	})
	rung("successors", len(t.ids), func(i int) error {
		recs, err := st.GetSuccessors(ctx, t.ids[i])
		if err != nil {
			return err
		}
		return k.successors(t.ids[i], recs)
	})
	rung("route", len(t.routes), func(i int) error {
		_, err := st.EvaluateRoute(ctx, t.routes[i])
		return err
	})
	rung("query", len(t.stmts), func(i int) error {
		_, err := st.Query(ctx, t.stmts[i])
		return err
	})

	dir := dirFor(t.p, "bare")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := storeOptions(filepath.Join(dir, "net.ccam"), t.p.w.pool)
	opts.Metrics, opts.TraceCapacity = false, 0
	bare, err := ccam.Open(opts)
	if err != nil {
		return err
	}
	defer bare.Close()
	if err := bare.Build(t.s.g); err != nil {
		return err
	}
	bareNS, _ := t.timeEach(len(t.ids), func(i int) error {
		rec, err := bare.Find(ctx, t.ids[i])
		if err != nil {
			return err
		}
		return k.record(rec, t.ids[i])
	})
	t.out.set("facade.instr_ratio", t.findNS/bareNS, "ratio")
	return nil
}

// benchFile is the traced run's own data file on a recording store.
type benchFile struct {
	f   *netfile.File
	m   *iccam.Method
	rs  *recStore
	g   *graph.Network
	cat *plan.Catalog
}

// buildBenchFile builds the static create in two timed steps,
// clustering and bulk load, on a checksummed file store wrapped in a
// recStore; prefetch is off and the pool has one shard, so page counts
// are exact.
func buildBenchFile(g *graph.Network, pool int, dir string, out *outcome) (*benchFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cs, _, err := storage.CreateCheckedFileFlags(filepath.Join(dir, "bench.ccam"), 2048, 0)
	if err != nil {
		return nil, err
	}
	rs := &recStore{Store: cs}
	ps := rs.PageSize()
	start := time.Now()
	groups, err := partition.ClusterNodesIntoPagesOpts(g, netfile.StoredSizer(g), netfile.PageBudget(ps),
		&partition.RatioCut{}, partition.ClusterOptions{Seed: mapSeed})
	if err != nil {
		rs.Close()
		return nil, err
	}
	out.set("build.cluster_s", time.Since(start).Seconds(), "s")
	start = time.Now()
	f, err := netfile.Create(netfile.Options{PageSize: ps, PoolPages: pool, Bounds: g.Bounds(), Store: rs})
	if err == nil {
		err = f.BulkLoad(g, groups)
	}
	if err == nil {
		err = f.Flush()
	}
	if err != nil {
		rs.Close()
		return nil, err
	}
	out.set("build.load_s", time.Since(start).Seconds(), "s")
	m, err := iccam.New(iccam.Config{PageSize: ps, PoolPages: pool, Seed: mapSeed, Store: rs})
	if err == nil {
		err = m.Attach(f)
	}
	if err != nil {
		rs.Close()
		return nil, err
	}
	return &benchFile{f: f, m: m, rs: rs, g: g}, nil
}

// runOn executes a read on the benchmark's file.
func (b *benchFile) runOn(cat *plan.Catalog, r *request) (a answer, err error) {
	switch r.kind {
	case kindFind:
		a.rec, err = b.f.Find(r.id)
	case kindSuccessors:
		a.recs, err = b.f.GetSuccessors(r.id)
	case kindEvalRoute:
		a.agg, err = b.f.EvaluateRoute(r.route)
	default:
		var q *lang.Query
		if q, err = lang.Parse(r.stmt); err != nil {
			return a, err
		}
		var pl *plan.Plan
		if pl, err = plan.Build(cat, q); err != nil {
			return a, err
		}
		a.res, err = exec.Run(context.Background(), b.f, pl, q)
	}
	return a, err
}

// queryRungs builds the planner catalog on the benchmark's file and
// times parse, plan and execute per statement; predict_err compares
// EXPLAIN's cold-pool page prediction with the pages each statement
// then reads from a cold pool.
func (t *traced) queryRungs(b *benchFile) error {
	start := time.Now()
	cat, err := plan.NewCatalog(b.f)
	if err != nil {
		return err
	}
	b.cat = cat
	t.out.set("query.catalog_build_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
	var parseNS, planNS, execNS int64
	var predErr, measured float64
	for _, src := range t.stmts {
		t0 := time.Now()
		q, err := lang.Parse(src)
		t1 := time.Now()
		if err != nil {
			return err
		}
		pl, err := plan.Build(cat, q)
		t2 := time.Now()
		if err != nil {
			return err
		}
		if err := b.f.DropCaches(); err != nil {
			return err
		}
		c0 := b.rs.count()
		t3 := time.Now()
		_, err = exec.Run(context.Background(), b.f, pl, q)
		t4 := time.Now()
		t.tally(err)
		reads := float64(b.rs.count().sub(c0).reads)
		parseNS += t1.Sub(t0).Nanoseconds()
		planNS += t2.Sub(t1).Nanoseconds()
		execNS += t4.Sub(t3).Nanoseconds()
		predErr += math.Abs(float64(pl.Chosen.Pages) - reads)
		measured += reads
	}
	n := float64(len(t.stmts))
	t.out.set("query.parse_ns", float64(parseNS)/n, "ns")
	t.out.set("query.plan_ns", float64(planNS)/n, "ns")
	t.out.set("query.exec_ns", float64(execNS)/n, "ns")
	t.out.set("query.predict_err", ratio(predErr, measured), "ratio")
	return nil
}

// netfileRungs replays the read sample on the benchmark's file from a
// cold pool, single-threaded with prefetch off: the paper's data-page
// accesses per operation. Then it times the per-op rungs and, with
// metrics enabled on the file, the index descent and buffer latencies.
func (t *traced) netfileRungs(b *benchFile, reads []request) error {
	out, f := t.out, b.f
	if err := f.DropCaches(); err != nil {
		return err
	}
	f.Pool().ResetStats()
	c0 := b.rs.count()
	for i := range reads {
		a, err := b.runOn(b.cat, &reads[i])
		if err == nil {
			err = t.k.check(&reads[i], a)
		}
		t.tally(err)
	}
	io := b.rs.count().sub(c0)
	ps := f.Pool().Stats()
	n := float64(len(reads))
	out.set("netfile.pages_per_op", float64(io.reads)/n, "count")
	out.set("netfile.crr", graph.CRR(b.g, f.Placement()), "ratio")
	out.set("buffer.hit_ratio", ratio(float64(ps.Hits), float64(ps.Fetches)), "ratio")
	out.set("buffer.evictions_per_op", float64(ps.Evictions)/n, "count")
	out.set("storage.read_ns", ratio(float64(io.readNanos), float64(io.reads)), "ns")

	findNS, _ := t.timeEach(len(t.ids), func(i int) error { _, err := f.Find(t.ids[i]); return err })
	out.set("netfile.find_ns", findNS, "ns")
	out.set("facade.self_ns", t.findNS-findNS, "ns")
	ns, _ := t.timeEach(len(t.ids), func(i int) error { _, err := f.GetSuccessors(t.ids[i]); return err })
	out.set("netfile.successors_ns", ns, "ns")
	ns, _ = t.timeEach(len(t.routes), func(i int) error { _, err := f.EvaluateRoute(t.routes[i]); return err })
	out.set("netfile.route_ns", ns, "ns")
	ns, _ = t.timeEach(len(t.ids), func(i int) error { _, err := f.PageOf(t.ids[i]); return err })
	out.set("btree.get_ns", ns, "ns")

	reg := imetrics.NewRegistry()
	f.EnableMetrics(reg, nil)
	if err := f.DropCaches(); err != nil {
		return err
	}
	v0 := f.IndexVisits()
	for _, id := range t.ids {
		if _, err := f.Find(id); err != nil {
			return err
		}
	}
	out.set("netfile.index_pages_per_lookup", float64(f.IndexVisits()-v0)/float64(len(t.ids)), "count")
	for i := range reads {
		if _, err := b.runOn(b.cat, &reads[i]); err != nil {
			return err
		}
	}
	out.set("buffer.hit_ns", reg.Histogram("ccam_buffer_hit_ns").Snapshot().Mean(), "ns")
	out.set("buffer.miss_ns", reg.Histogram("ccam_buffer_miss_ns").Snapshot().Mean(), "ns")
	return nil
}

// writeRungs applies the batch sample directly on the served store
// one at a time, then forces a checkpoint.
func (t *traced) writeRungs(batches []request) error {
	out, st, ctx := t.out, t.s.st, context.Background()
	reg := st.Metrics()
	walBytes := reg.Counter("ccam_wal_bytes_total")
	commit := reg.Histogram("ccam_wal_commit_wait_ns")
	bs := make([]*ccam.Batch, len(batches))
	var logical int
	for i, b := range batches {
		var err error
		if bs[i], err = (&wire.ApplyRequest{Ops: b.ops}).Batch(); err != nil {
			return err
		}
		body, err := wire.EncodeApplyBody(b.ops)
		if err != nil {
			return err
		}
		logical += len(body)
	}
	ws0, io0, bytes0, cw0 := st.WALStats(), st.IO(), walBytes.Value(), commit.Snapshot()
	var applyNS int64
	var mallocs uint64
	checkpoints := 0
	size := ws0.SizeBytes
	for _, b := range bs {
		ms0 := memStats()
		start := time.Now()
		err := st.Apply(ctx, b)
		applyNS += time.Since(start).Nanoseconds()
		ms1 := memStats()
		mallocs += ms1.Mallocs - ms0.Mallocs
		t.tally(err)
		if s := st.WALStats().SizeBytes; s < size {
			checkpoints++
			size = s
		} else {
			size = s
		}
	}
	ws1, cw1 := st.WALStats(), commit.Snapshot()
	n, ops := float64(len(bs)), float64(len(bs)*batchOps)
	out.set("facade.apply_us", float64(applyNS)/n/1e3, "us")
	out.set("facade.apply_allocs", float64(mallocs)/n, "count")
	out.set("wal.commit_us", ratio(float64(cw1.Sum-cw0.Sum), float64(cw1.Count-cw0.Count))/1e3, "us")
	out.set("wal.fsyncs_per_batch", float64(ws1.Fsyncs-ws0.Fsyncs)/n, "count")
	out.set("wal.group_size", ratio(float64(ws1.GroupedCommits-ws0.GroupedCommits), float64(ws1.Fsyncs-ws0.Fsyncs)), "count")
	out.set("wal.bytes_per_op", float64(walBytes.Value()-bytes0)/ops, "B")
	out.set("wal.checkpoints", float64(checkpoints), "count")
	start := time.Now()
	if err := st.Checkpoint(); err != nil {
		return err
	}
	out.set("wal.checkpoint_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
	io1 := st.IO()
	written := float64(io1.Writes-io0.Writes)*2048 + float64(walBytes.Value()-bytes0)
	out.set("storage.writes_per_op", float64(io1.Writes-io0.Writes)/ops, "count")
	out.set("storage.write_amp", written/float64(logical), "ratio")
	return nil
}

// versionRung applies batches to the benchmark's file inside version
// batches while a reader view, re-pinned every eight batches, holds
// old page images alive, and reports the most chain entries live at
// once.
func (t *traced) versionRung(b *benchFile, wr *writer) error {
	f, pool := b.f, b.f.Pool()
	var view netfile.View
	pinned := false
	var most int64
	for i := 0; i < probeBatches; i++ {
		r, err := wr.next()
		if err != nil {
			return err
		}
		if i%8 == 0 {
			if pinned {
				view.Unpin()
			}
			view, pinned = f.PinView(), true
		}
		f.BeginVersionBatch()
		for j := range r.ops {
			if err = b.applyOp(&r.ops[j]); err != nil {
				break
			}
		}
		if err != nil {
			f.AbortVersionBatch()
		} else {
			f.PublishVersionBatch(pool.CommittedLSN() + 1)
		}
		t.tally(err)
		if n, _ := pool.VersionStats(); n > most {
			most = n
		}
	}
	if pinned {
		view.Unpin()
	}
	t.out.set("buffer.versions_live_max", float64(most), "count")
	return nil
}

// applyOp applies one batch op through the access method, as the
// facade's Apply does.
func (b *benchFile) applyOp(op *wire.ApplyOp) error {
	switch op.Kind {
	case wire.OpSetEdgeCost:
		return b.f.SetEdgeCost(op.From, op.To, op.Cost)
	case wire.OpInsertEdge:
		return b.m.InsertEdge(op.From, op.To, op.Cost, netfile.FirstOrder)
	case wire.OpDeleteEdge:
		return b.m.DeleteEdge(op.From, op.To, netfile.FirstOrder)
	case wire.OpInsertNode:
		return b.m.Insert(&netfile.InsertOp{Rec: op.Node.Record(), PredCosts: op.PredCosts}, netfile.FirstOrder)
	case wire.OpDeleteNode:
		return b.m.Delete(op.ID, netfile.FirstOrder)
	}
	return fmt.Errorf("unknown op %q", op.Kind)
}
