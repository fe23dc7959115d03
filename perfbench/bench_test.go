package main

import (
	"math"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query/exec"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestHighestSupportedLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestFailuresCountAboveEveryLatency(t *testing.T) {
	var l latencies
	for i := 0; i < 989; i++ {
		l.add(10)
	}
	for i := 0; i < 11; i++ {
		l.fail()
	}
	p50, p99, ok := l.summary()
	if p50 != 10 || !math.IsInf(p99, 1) || !ok {
		t.Errorf("p50 %v p99 %v ok %v: eleven failures in 1000 must set p99", p50, p99, ok)
	}
	l = latencies{us: make([]float64, 999)}
	if _, _, ok := l.summary(); ok {
		t.Error("999 samples leave fewer than ten beyond p99")
	}
}

// testNet is a four-node network: 1->2 (1.5), 2->3 (2.25), 1->3 (5),
// 3->4 (1).
func testNet(t *testing.T) *graph.Network {
	t.Helper()
	g := graph.NewNetwork()
	for id := graph.NodeID(1); id <= 4; id++ {
		if err := g.AddNode(graph.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graph.Edge{{From: 1, To: 2, Cost: 1.5}, {From: 2, To: 3, Cost: 2.25}, {From: 1, To: 3, Cost: 5}, {From: 3, To: 4, Cost: 1}} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	g := testNet(t)
	k := &checker{g: g}
	good := &netfile.Record{ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1.5}, {To: 3, Cost: 5}}}
	if err := k.record(good, 1); err != nil {
		t.Fatalf("correct record rejected: %v", err)
	}
	for name, rec := range map[string]*netfile.Record{
		"wrong id":       {ID: 2, Succs: good.Succs},
		"wrong cost":     {ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1.5}, {To: 3, Cost: 6}}},
		"missing edge":   {ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1.5}}},
		"unexpected one": {ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1.5}, {To: 3, Cost: 5}, {To: 4, Cost: 1}}},
	} {
		if err := k.record(rec, 1); err == nil {
			t.Errorf("%s: passed the checker", name)
		}
	}

	route := graph.Route{1, 2, 3, 4}
	want, err := routeCost(g, route)
	if err != nil || want != 4.75 {
		t.Fatalf("routeCost = %v, %v; want 4.75", want, err)
	}
	r := &request{kind: kindEvalRoute, route: route, want: want}
	if err := k.check(r, answer{agg: netfile.RouteAggregate{Nodes: 4, TotalCost: 4.75}}); err != nil {
		t.Errorf("correct route rejected: %v", err)
	}
	r.want++ // a deliberately wrong expected value
	if err := k.check(r, answer{agg: netfile.RouteAggregate{Nodes: 4, TotalCost: 4.75}}); err == nil {
		t.Error("a wrong expected route cost passed the checker")
	}

	if d, ok := dijkstra(g, 1, 4); !ok || d != 4.75 {
		t.Errorf("dijkstra(1, 4) = %v, %v; want 4.75 via 2", d, ok)
	}
	path := &request{kind: kindPath, route: graph.Route{1, 4}, stmt: "PATH 1 TO 4", want: 4.75}
	if err := k.check(path, answer{res: &exec.Result{Cost: 5.25, Path: []graph.NodeID{1, 3, 4}}}); err == nil {
		t.Error("a longer path passed the checker")
	}
	if got := neighborsSum(g, 1, 2); got != 1.5+5+2.25+1 {
		t.Errorf("neighborsSum(1, 2) = %v", got)
	}
}

func TestCheckerAcceptsOnlyWrittenCosts(t *testing.T) {
	g := testNet(t)
	k := &checker{g: g, model: &writeModel{
		costs:     map[edgeKey][]float32{keyOf(1, 3): {5, 7}},
		tempEdges: map[edgeKey]float32{keyOf(1, 4): 9},
		firstTemp: 100,
	}}
	ok := &netfile.Record{ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1.5}, {To: 3, Cost: 7}, {To: 4, Cost: 9}, {To: 100}}}
	if err := k.record(ok, 1); err != nil {
		t.Errorf("written cost and temporary successors rejected: %v", err)
	}
	bad := &netfile.Record{ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1.5}, {To: 3, Cost: 8}}}
	if err := k.record(bad, 1); err == nil {
		t.Error("a cost no batch wrote passed the checker")
	}
}

func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "client", Parent: 0, Start: 0, End: 60},
		{Name: "wire.req_encode", Parent: 1, Start: 0, End: 10},
		{Name: "server.transport", Parent: 1, Start: 10, End: 50},
		{Name: "wire.resp_decode", Parent: 1, Start: 50, End: 60},
		{Name: "facade.find", Parent: 0, Start: 65, End: 90},
		// Overlapping children of one parent are covered once.
		{Name: "a", Parent: 5, Start: 70, End: 80},
		{Name: "b", Parent: 5, Start: 75, End: 85},
	}
	self := selfTimes(spans)
	var sum int64
	for _, v := range self {
		sum += v
	}
	if self["request"] != 15 || self["client"] != 0 || self["facade.find"] != 10 {
		t.Errorf("self times %v", self)
	}
	// Overlap is counted in each child's own self time, once per child.
	if sum != 100+5 {
		t.Errorf("self times sum to %d, want the root's 100 plus the 5 ns overlap", sum)
	}
	// Client 60 = encode 10 + decode 10 + facade 25 + ping 10 + 5 unattributed.
	if got := unattributed(spans[:6], 10); math.Abs(got-5.0/60) > 1e-12 {
		t.Errorf("unattributed = %v, want %v", got, 5.0/60)
	}
}
