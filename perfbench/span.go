package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one request share req; parent indexes the span that
// caused this one (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; a disabled recorder times nothing,
// which is the untraced baseline for trace.overhead_frac.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its index (-1 when disabled).
func (r *recorder) begin(name string, req, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// totals returns, per span name, the count and summed duration.
func totals(spans []span) map[string][2]int64 {
	out := make(map[string][2]int64)
	for _, s := range spans {
		t := out[s.Name]
		out[s.Name] = [2]int64{t[0] + 1, t[1] + s.End - s.Start}
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
