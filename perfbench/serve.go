package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ccam"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query/exec"
	"ccam/internal/server"
	"ccam/internal/wire"
)

// served is one store as ccam-serve deploys it, served in-process over
// the binary protocol on a loopback port.
type served struct {
	g     *graph.Network
	ids   []graph.NodeID
	dir   string
	st    *ccam.Store
	srv   *server.Server
	addr  string
	serve chan error
	// phases of the set-up, in seconds.
	mapS, buildS, warmS float64
	// heapBase is the live heap after map generation, before the store
	// existed; heap_mib is measured above it.
	heapBase uint64
}

// storeOptions is the daemon's store configuration (cmd/ccam-serve
// with -create) at the given pool size.
func storeOptions(path string, pool int) ccam.Options {
	return ccam.Options{
		PageSize:      2048,
		PoolPages:     pool,
		PoolShards:    ccam.AutoPoolShards(pool),
		Prefetch:      true,
		Seed:          mapSeed,
		Metrics:       true,
		TraceCapacity: 256,
		WAL:           true,
		SyncPolicy:    ccam.SyncGroupCommit,
		Path:          path,
	}
}

// genMap generates the workload's road map.
func genMap(w *workload) (*graph.Network, error) {
	opts := graph.MinneapolisLikeOpts()
	opts.Seed = mapSeed
	side := int(math.Ceil(math.Sqrt(float64(w.targets))))
	opts.Rows, opts.Cols = side, side
	return graph.RoadMap(opts)
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp generates the map, builds and flushes the store under dir,
// starts the server and leaves it ready for timed requests. warm runs
// every request kind once over a fresh connection.
func setUp(w *workload, dir string, warm func(*served) error) (s *served, err error) {
	s = &served{dir: dir}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	t0 := time.Now()
	if s.g, err = genMap(w); err != nil {
		return s, err
	}
	s.ids = s.g.NodeIDs()
	t1 := time.Now()
	s.mapS = t1.Sub(t0).Seconds()
	// The heap is sampled outside the timed span: a forced GC is not
	// part of set-up.
	s.heapBase = liveHeap()
	t1 = time.Now()
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return s, err
	}
	if s.st, err = ccam.Open(storeOptions(filepath.Join(dir, "net.ccam"), w.pool)); err != nil {
		return s, err
	}
	if err = s.st.Build(s.g); err != nil {
		return s, fmt.Errorf("build: %w", err)
	}
	if err = s.st.Flush(); err != nil {
		return s, fmt.Errorf("flush: %w", err)
	}
	t2 := time.Now()
	s.buildS = t2.Sub(t1).Seconds()
	s.srv = server.New(server.Options{Store: s.st})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.addr = l.Addr().String()
	s.serve = make(chan error, 1)
	go func() { s.serve <- s.srv.ServeBinary(l) }()
	if err = warm(s); err != nil {
		return s, fmt.Errorf("warm-up: %w", err)
	}
	s.warmS = time.Since(t2).Seconds()
	return s, nil
}

// setupS is the set-up time the benchmark reports: map generation
// through warm-up.
func (s *served) setupS() float64 { return s.mapS + s.buildS + s.warmS }

// close stops the server, closes the store and removes its directory.
func (s *served) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.serve; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	if s.st != nil {
		errs = append(errs, s.st.Close())
		s.st = nil
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// storeBytes is the on-disk size of the data file plus its WAL.
func (s *served) storeBytes() (int64, error) {
	var n int64
	err := filepath.Walk(s.dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// dial opens n binary-protocol connections.
func (s *served) dial(n int) ([]*wire.Client, error) {
	cs := make([]*wire.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := wire.Dial(s.addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// answer is a decoded reply to one request.
type answer struct {
	rec     *netfile.Record
	recs    []*netfile.Record
	agg     netfile.RouteAggregate
	res     *exec.Result
	applied int
}

// fetch sends one request over c.
func fetch(ctx context.Context, c *wire.Client, r *request) (a answer, err error) {
	switch r.kind {
	case kindFind:
		a.rec, err = c.Find(ctx, r.id)
	case kindSuccessors:
		a.recs, err = c.GetSuccessors(ctx, r.id)
	case kindEvalRoute:
		a.agg, err = c.EvaluateRoute(ctx, r.route)
	case kindRoute, kindNeighbors, kindPath:
		a.res, err = c.Query(ctx, r.stmt)
	case kindApply:
		a.applied, err = c.Apply(ctx, r.ops)
	default:
		err = fmt.Errorf("unknown request kind %d", r.kind)
	}
	return a, err
}

// do sends one request over c and checks the answer.
func (k *checker) do(ctx context.Context, c *wire.Client, r *request) error {
	a, err := fetch(ctx, c, r)
	if err != nil {
		return err
	}
	return k.check(r, a)
}

// check verifies the answer to r.
func (k *checker) check(r *request, a answer) error {
	switch r.kind {
	case kindFind:
		return k.record(a.rec, r.id)
	case kindSuccessors:
		return k.successors(r.id, a.recs)
	case kindEvalRoute:
		if a.agg.Nodes != len(r.route) || !near(a.agg.TotalCost, r.want) {
			return fmt.Errorf("route %v: %+v, want cost %v", r.route, a.agg, r.want)
		}
		return nil
	case kindRoute, kindNeighbors, kindPath:
		if a.res == nil {
			return fmt.Errorf("%s: no result", r.stmt)
		}
		return k.result(r, a.res)
	case kindApply:
		if a.applied != len(r.ops) {
			return fmt.Errorf("apply: %d of %d ops", a.applied, len(r.ops))
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %d", r.kind)
}

// tally counts one connection's requests in the timed phase.
type tally struct {
	lat               latencies
	attempted, failed int
	firstErr          error
}

// loop runs reqs over c as a closed loop. Each latency is timed from
// the arrival of the previous reply (from the start for the first), so
// the client's own work between requests is charged to the request it
// delays. It returns the loop's wall time.
func (t *tally) loop(ctx context.Context, k *checker, c *wire.Client, reqs []request) time.Duration {
	start := time.Now()
	prev := start
	for i := range reqs {
		err := k.do(ctx, c, &reqs[i])
		now := time.Now()
		t.attempted++
		if err != nil {
			t.failed++
			t.lat.fail()
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("%s: %w", reqs[i].kind, err)
			}
		} else {
			t.lat.add(float64(now.Sub(prev).Nanoseconds()) / 1e3)
		}
		prev = now
	}
	return prev.Sub(start)
}
