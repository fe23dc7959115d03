package main

import (
	"container/heap"
	"fmt"
	"math"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query/exec"
)

// checker verifies every answer the store returns against the
// generated network. On the read-only workloads the network never
// changes and answers must match it exactly. On mixed-write the
// checker also holds the writer's model: every cost ever issued for an
// edge and every temporary edge and node, so a concurrent read is
// accepted only if it shows a value some batch wrote.
type checker struct {
	g *graph.Network
	// model is nil on the read-only workloads.
	model *writeModel
}

type edgeKey uint64

func keyOf(from, to graph.NodeID) edgeKey { return edgeKey(from)<<32 | edgeKey(to) }

// writeModel is what the mixed-write writer has issued. Batches are
// registered before they are sent, so it is read-only while a round
// runs and needs no lock.
type writeModel struct {
	// costs lists, per edge, the generated cost followed by every cost
	// a batch set; the last entry is the one that must read back once
	// every batch has committed.
	costs map[edgeKey][]float32
	// tempEdges holds every edge an InsertEdge issued, with its cost.
	tempEdges map[edgeKey]float32
	// firstTemp is the smallest id of an inserted node; every id at or
	// above it is a temporary node.
	firstTemp graph.NodeID
}

// cost32 is an edge cost as the store keeps it.
func cost32(e graph.Edge) float32 { return float32(e.Cost) }

// near compares a float64 aggregate with its reference within a
// relative 1e-6: the store sums float32 costs in its own order.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// record checks a Find answer for node id.
func (k *checker) record(rec *netfile.Record, id graph.NodeID) error {
	if rec == nil || rec.ID != id {
		return fmt.Errorf("find %d: got record %v", id, recID(rec))
	}
	return k.succs(id, rec.Succs)
}

func recID(rec *netfile.Record) any {
	if rec == nil {
		return nil
	}
	return rec.ID
}

// succs checks a successor list of node id: every generated edge is
// present with an accepted cost, and any extra entry is an edge or
// node the writer inserted.
func (k *checker) succs(id graph.NodeID, got []netfile.SuccEntry) error {
	base := k.g.SuccessorEdges(id)
	seen := 0
	for _, s := range got {
		e, err := k.g.Edge(id, s.To)
		if err != nil {
			if !k.tempSucc(id, s.To) {
				return fmt.Errorf("node %d: unexpected successor %d", id, s.To)
			}
			continue
		}
		seen++
		if !k.costOK(e, s.Cost) {
			return fmt.Errorf("edge %d->%d: cost %v, want %v", id, s.To, s.Cost, cost32(e))
		}
	}
	if seen != len(base) {
		return fmt.Errorf("node %d: %d of %d successors", id, seen, len(base))
	}
	return nil
}

func (k *checker) tempSucc(from, to graph.NodeID) bool {
	if k.model == nil {
		return false
	}
	_, ok := k.model.tempEdges[keyOf(from, to)]
	return ok || to >= k.model.firstTemp
}

func (k *checker) costOK(e graph.Edge, got float32) bool {
	if k.model == nil {
		return got == cost32(e)
	}
	for _, c := range k.model.costs[keyOf(e.From, e.To)] {
		if c == got {
			return true
		}
	}
	return got == cost32(e)
}

// successors checks a GetSuccessors answer for node id.
func (k *checker) successors(id graph.NodeID, recs []*netfile.Record) error {
	want := k.g.Successors(id)
	got := make(map[graph.NodeID]bool, len(recs))
	for _, r := range recs {
		if r == nil {
			return fmt.Errorf("successors %d: nil record", id)
		}
		if !k.g.HasNode(r.ID) {
			if !k.tempSucc(id, r.ID) {
				return fmt.Errorf("successors %d: unexpected %d", id, r.ID)
			}
			continue
		}
		got[r.ID] = true
	}
	for _, s := range want {
		if !got[s] {
			return fmt.Errorf("successors %d: missing %d", id, s)
		}
	}
	return nil
}

// routeCost is the reference aggregate of a route: the sum of the
// generator's edge costs as the store keeps them.
func routeCost(g *graph.Network, r graph.Route) (float64, error) {
	sum := 0.0
	for i := 1; i < len(r); i++ {
		e, err := g.Edge(r[i-1], r[i])
		if err != nil {
			return 0, err
		}
		sum += float64(cost32(e))
	}
	return sum, nil
}

// neighborsSum is the reference SUM(cost) of NEIGHBORS id DEPTH d: the
// cost of every successor edge of each node expanded by a
// breadth-first walk of d hops (the start and everything within d-1
// hops).
func neighborsSum(g *graph.Network, id graph.NodeID, depth int) float64 {
	seen := map[graph.NodeID]bool{id: true}
	frontier := []graph.NodeID{id}
	sum := 0.0
	for d := 0; d < depth; d++ {
		var next []graph.NodeID
		for _, u := range frontier {
			for _, e := range g.SuccessorEdges(u) {
				sum += float64(cost32(e))
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return sum
}

// dijkstra is the reference shortest-path cost on the in-memory
// network, with costs as the store keeps them.
func dijkstra(g *graph.Network, src, dst graph.NodeID) (float64, bool) {
	dist := map[graph.NodeID]float64{src: 0}
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.id] {
			continue
		}
		if it.id == dst {
			return it.d, true
		}
		for _, e := range g.SuccessorEdges(it.id) {
			nd := it.d + float64(cost32(e))
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				heap.Push(pq, distItem{e.To, nd})
			}
		}
	}
	return 0, false
}

type distItem struct {
	id graph.NodeID
	d  float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// result checks a CCAM-QL answer against the request's reference.
func (k *checker) result(r *request, res *exec.Result) error {
	switch r.kind {
	case kindRoute:
		if res.Agg == nil || !near(res.Agg.Value, r.want) || res.Count != len(r.route) {
			return fmt.Errorf("%s: agg %+v count %d, want %v over %d nodes", r.stmt, res.Agg, res.Count, r.want, len(r.route))
		}
	case kindNeighbors:
		if k.model != nil {
			// Costs move under the writer; check the ball instead.
			return k.ball(r.id, res)
		}
		if res.Agg == nil || !near(res.Agg.Value, r.want) {
			return fmt.Errorf("%s: agg %+v, want %v", r.stmt, res.Agg, r.want)
		}
	case kindPath:
		if !near(res.Cost, r.want) || len(res.Path) == 0 || res.Path[0] != r.route[0] || res.Path[len(res.Path)-1] != r.route[len(r.route)-1] {
			return fmt.Errorf("%s: cost %v path %v, want %v", r.stmt, res.Cost, res.Path, r.want)
		}
	default:
		return fmt.Errorf("query of kind %v", r.kind)
	}
	return nil
}

// ball checks that a NEIGHBORS DEPTH 1 result holds the node and all
// its generated successors.
func (k *checker) ball(id graph.NodeID, res *exec.Result) error {
	got := make(map[graph.NodeID]bool, len(res.Nodes))
	for _, n := range res.Nodes {
		got[n.ID] = true
	}
	if !got[id] {
		return fmt.Errorf("neighbors %d: start missing", id)
	}
	for _, s := range k.g.Successors(id) {
		if !got[s] {
			return fmt.Errorf("neighbors %d: successor %d missing", id, s)
		}
	}
	return nil
}
