package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ccam/internal/graph"
	"ccam/internal/wire"
)

// mapSeed fixes the generated road map and the partitioner, so every
// run of a workload serves the same store and only the request stream
// follows --seed.
const mapSeed = 42

// batchOps is the size of one mixed-write Apply batch: walkEdges cost
// updates, an InsertEdge/DeleteEdge pair and an Insert/Delete node pair.
const (
	batchOps  = 16
	walkEdges = batchOps - 4
)

// workload is one traffic mix against one store configuration. Every
// connection is a closed loop: it sends its next request only after
// the previous reply arrived.
type workload struct {
	name string
	// targets is the map size asked of the generator (lattice cells);
	// the largest connected component keeps slightly fewer nodes.
	targets int
	// pool is the buffer pool capacity in pages.
	pool int
	// perRound is the request count each read connection runs per
	// round; batchesPerRound the writer's batch count (mixed-write).
	perRound, batchesPerRound int
	// routeHops is the walk length of route requests.
	routeHops int
	// streamLen is the number of requests generated per connection;
	// rounds cycle through them.
	streamLen int
	// traceReads is the read sample of the traced run.
	traceReads int
}

var workloads = map[string]*workload{
	"hot-point":   {name: "hot-point", targets: 16384, pool: 2048, perRound: 4000, routeHops: 8, streamLen: 16384, traceReads: 2000},
	"cold-query":  {name: "cold-query", targets: 65536, pool: 256, perRound: 1000, routeHops: 32, streamLen: 8192, traceReads: 300},
	"mixed-write": {name: "mixed-write", targets: 16384, pool: 2048, perRound: 3000, batchesPerRound: 250, routeHops: walkEdges, traceReads: 1000},
}

// loadConns is the number of client connections: at most nproc, as
// the load runs in one process beside the server.
const loadConns = 2

type reqKind uint8

const (
	kindFind reqKind = iota
	kindSuccessors
	kindEvalRoute
	kindRoute // CCAM-QL ROUTE
	kindNeighbors
	kindPath
	kindApply
)

var kindNames = [...]string{"find", "successors", "evaluate-route", "ql-route", "ql-neighbors", "ql-path", "apply"}

func (k reqKind) String() string { return kindNames[k] }

// request is one generated request with its reference answer.
type request struct {
	kind  reqKind
	id    graph.NodeID
	route graph.Route
	stmt  string
	want  float64
	ops   []wire.ApplyOp
}

// walk returns one random walk of hops edges from a uniform start,
// avoiding an immediate step back where another successor exists, as
// graph.RandomWalkRoutes does; a walk that dead-ends restarts.
func walk(g *graph.Network, ids []graph.NodeID, hops int, rng *rand.Rand) (graph.Route, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		r := graph.Route{ids[rng.Intn(len(ids))]}
		for len(r) <= hops {
			succs := g.Successors(r[len(r)-1])
			if len(succs) == 0 {
				break
			}
			next := succs[rng.Intn(len(succs))]
			if len(r) > 1 && next == r[len(r)-2] && len(succs) > 1 {
				continue
			}
			r = append(r, next)
		}
		if len(r) == hops+1 {
			return r, nil
		}
	}
	return nil, fmt.Errorf("no %d-hop walk found", hops)
}

func routeStmt(r graph.Route) string {
	var b strings.Builder
	b.WriteString("ROUTE ")
	for i, id := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	b.WriteString(" AGG SUM(cost)")
	return b.String()
}

// hotPointReq draws one hot-point request: Find 60%, GetSuccessors
// 25%, EvaluateRoute over an 8-hop walk 15%, keys uniform.
func hotPointReq(g *graph.Network, ids []graph.NodeID, hops int, rng *rand.Rand) (request, error) {
	switch u := rng.Float64(); {
	case u < 0.60:
		return request{kind: kindFind, id: ids[rng.Intn(len(ids))]}, nil
	case u < 0.85:
		return request{kind: kindSuccessors, id: ids[rng.Intn(len(ids))]}, nil
	default:
		r, err := walk(g, ids, hops, rng)
		if err != nil {
			return request{}, err
		}
		want, err := routeCost(g, r)
		return request{kind: kindEvalRoute, route: r, want: want}, err
	}
}

// coldQueryReq draws one cold-query statement: ROUTE over a 32-hop
// walk 50%, NEIGHBORS DEPTH 2 30%, PATH between the ends of a 10-hop
// walk 20%.
func coldQueryReq(g *graph.Network, ids []graph.NodeID, hops int, rng *rand.Rand) (request, error) {
	switch u := rng.Float64(); {
	case u < 0.50:
		r, err := walk(g, ids, hops, rng)
		if err != nil {
			return request{}, err
		}
		want, err := routeCost(g, r)
		return request{kind: kindRoute, route: r, stmt: routeStmt(r), want: want}, err
	case u < 0.80:
		id := ids[rng.Intn(len(ids))]
		return request{kind: kindNeighbors, id: id,
			stmt: fmt.Sprintf("NEIGHBORS %d DEPTH 2 AGG SUM(cost)", id), want: neighborsSum(g, id, 2)}, nil
	default:
		r, err := walk(g, ids, 10, rng)
		if err != nil {
			return request{}, err
		}
		src, dst := r[0], r[len(r)-1]
		want, ok := dijkstra(g, src, dst)
		if !ok {
			return request{}, fmt.Errorf("no path %d -> %d", src, dst)
		}
		return request{kind: kindPath, route: r, stmt: fmt.Sprintf("PATH %d TO %d", src, dst), want: want}, nil
	}
}

// stream generates the read requests of one connection.
func stream(w *workload, g *graph.Network, ids []graph.NodeID, seed int64, conn int) ([]request, error) {
	gen := hotPointReq
	if w.name == "cold-query" {
		gen = coldQueryReq
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)))
	out := make([]request, w.streamLen)
	for i := range out {
		r, err := gen(g, ids, w.routeHops, rng)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// writer generates mixed-write batches. Batch b sets the cost of every
// edge of a 12-hop walk, inserts edge e_b and deletes e_{b-1}, and
// inserts node n_b (first-order) and deletes n_{b-1}, so the node and
// edge counts stay level after the first batch.
type writer struct {
	g     *graph.Network
	ids   []graph.NodeID
	rng   *rand.Rand
	model *writeModel
	// n is the number of batches generated; lastEdge the edge the
	// newest batch inserted.
	n        int
	lastEdge [2]graph.NodeID
	// walks holds each batch's walk, for the reader to target.
	walks []graph.Route
}

func newWriter(g *graph.Network, ids []graph.NodeID, seed int64) *writer {
	maxID := graph.NodeID(0)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	return &writer{
		g: g, ids: ids, rng: rand.New(rand.NewSource(seed*104729 + 1)),
		model: &writeModel{
			costs:     make(map[edgeKey][]float32),
			tempEdges: make(map[edgeKey]float32),
			firstTemp: maxID + 1,
		},
	}
}

// tempID is the id of the node batch b inserts.
func (w *writer) tempID(b int) graph.NodeID { return w.model.firstTemp + graph.NodeID(b) }

// next generates the next batch and registers it in the model.
func (w *writer) next() (request, error) {
	b := w.n
	r, err := walk(w.g, w.ids, walkEdges, w.rng)
	if err != nil {
		return request{}, err
	}
	ops := make([]wire.ApplyOp, 0, batchOps)
	for i := 1; i < len(r); i++ {
		e, err := w.g.Edge(r[i-1], r[i])
		if err != nil {
			return request{}, err
		}
		c := float32(e.Cost * (0.5 + w.rng.Float64()))
		k := keyOf(e.From, e.To)
		if len(w.model.costs[k]) == 0 {
			w.model.costs[k] = []float32{cost32(e)}
		}
		w.model.costs[k] = append(w.model.costs[k], c)
		ops = append(ops, wire.ApplyOp{Kind: wire.OpSetEdgeCost, From: e.From, To: e.To, Cost: c})
	}
	edge := w.newTempEdge()
	cost := float32(50 + w.rng.Intn(100))
	w.model.tempEdges[keyOf(edge[0], edge[1])] = cost
	ops = append(ops, wire.ApplyOp{Kind: wire.OpInsertEdge, From: edge[0], To: edge[1], Cost: cost, Policy: "first-order"})
	if b > 0 {
		ops = append(ops, wire.ApplyOp{Kind: wire.OpDeleteEdge, From: w.lastEdge[0], To: w.lastEdge[1], Policy: "first-order"})
	}
	w.lastEdge = edge
	node, err := w.tempNode(b)
	if err != nil {
		return request{}, err
	}
	ops = append(ops, node)
	if b > 0 {
		ops = append(ops, wire.ApplyOp{Kind: wire.OpDeleteNode, ID: w.tempID(b - 1), Policy: "first-order"})
	}
	w.n++
	w.walks = append(w.walks, r)
	return request{kind: kindApply, ops: ops, route: r}, nil
}

// newTempEdge picks u -> v two hops apart with no generated edge and
// distinct from the edge the previous batch inserted.
func (w *writer) newTempEdge() [2]graph.NodeID {
	for {
		u := w.ids[w.rng.Intn(len(w.ids))]
		s1 := w.g.Successors(u)
		if len(s1) == 0 {
			continue
		}
		s2 := w.g.Successors(s1[w.rng.Intn(len(s1))])
		if len(s2) == 0 {
			continue
		}
		v := s2[w.rng.Intn(len(s2))]
		if v == u || hasEdge(w.g, u, v) || [2]graph.NodeID{u, v} == w.lastEdge {
			continue
		}
		return [2]graph.NodeID{u, v}
	}
}

func hasEdge(g *graph.Network, u, v graph.NodeID) bool {
	_, err := g.Edge(u, v)
	return err == nil
}

// tempNode builds the insert of node n_b beside a random anchor p,
// linked both ways to it.
func (w *writer) tempNode(b int) (wire.ApplyOp, error) {
	p := w.ids[w.rng.Intn(len(w.ids))]
	pn, err := w.g.Node(p)
	if err != nil {
		return wire.ApplyOp{}, err
	}
	c := float32(20 + w.rng.Intn(40))
	rec := &wire.RecordJSON{
		ID: w.tempID(b), X: pn.Pos.X + 1, Y: pn.Pos.Y + 1,
		Attrs: make([]byte, len(pn.Attrs)),
		Succs: []wire.SuccJSON{{To: p, Cost: c}},
		Preds: []graph.NodeID{p},
	}
	return wire.ApplyOp{Kind: wire.OpInsertNode, Node: rec, PredCosts: []float32{c}, Policy: "first-order"}, nil
}

// readerReq draws one mixed-write read on a node of a walk the writer
// updates: Find or GetSuccessors, half each. The reader sends no
// CCAM-QL statement: Store.Query plans against the catalog after
// releasing the catalog lock, while Apply updates it under that lock,
// and the two together crash the process with a concurrent map access
// (see README.md). Warm-up still builds the catalog, so every batch
// pays its upkeep.
func readerReq(r graph.Route, rng *rand.Rand) request {
	id := r[rng.Intn(len(r))]
	if rng.Intn(2) == 0 {
		return request{kind: kindFind, id: id}
	}
	return request{kind: kindSuccessors, id: id}
}
