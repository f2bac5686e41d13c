package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one run share
// Run; Parent links a span to the span that caused it (-1 for a root).
//
// A coalesced span stands for many short intervals of one layer on one
// goroutine (for example every batch an analysis consumer handled during
// one trace): Start and End bound the first and last interval and Busy
// is their summed duration. For an ordinary span Busy is End-Start.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Run       string `json:"run"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	BusyNs    int64  `json:"busy_ns"`
	Count     int64  `json:"count"`
	Coalesced bool   `json:"coalesced,omitempty"`
	SelfNs    int64  `json:"self_ns"`
}

// tracer keeps every span of one run in memory; they are written out
// once, when the run ends. It is safe for concurrent use.
type tracer struct {
	run   string
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name, layer string) int {
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run,
		Name: name, Layer: layer, StartNs: now, EndNs: now, Count: 1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	s := &t.spans[id]
	s.EndNs = now
	s.BusyNs = now - s.StartNs
	t.mu.Unlock()
}

// interval records an already finished interval under parent.
func (t *tracer) interval(parent int, name, layer string, startNs, endNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run,
		Name: name, Layer: layer, StartNs: startNs, EndNs: endNs, BusyNs: endNs - startNs, Count: 1})
}

// call runs f inside a span. A nil tracer runs f untimed, so the
// untraced path shares the traced path's code.
func (t *tracer) call(parent int, name, layer string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.begin(parent, name, layer)
	f()
	t.end(id)
}

// coalesce opens a coalesced span; add intervals to it with the returned
// accumulator. Accumulators are owned by one goroutine.
func (t *tracer) coalesce(parent int, name, layer string) *acc {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run,
		Name: name, Layer: layer, Coalesced: true})
	return &acc{t: t, id: len(t.spans) - 1}
}

// acc accumulates intervals into one coalesced span.
type acc struct {
	t  *tracer
	id int
}

// add folds one interval [start, end) into the span.
func (a *acc) add(start, end time.Time) {
	s, e := start.UnixNano(), end.UnixNano()
	a.t.mu.Lock()
	sp := &a.t.spans[a.id]
	if sp.Count == 0 || s < sp.StartNs {
		sp.StartNs = s
	}
	if e > sp.EndNs {
		sp.EndNs = e
	}
	sp.BusyNs += e - s
	sp.Count++
	a.t.mu.Unlock()
}

// time runs f and folds its interval into the span.
func (a *acc) time(f func()) {
	start := time.Now()
	f()
	a.add(start, time.Now())
}

// finish computes every span's self time: its busy time minus the part
// its children cover. Ordinary children cover the union of their
// intervals (clipped to the parent), which handles children that ran in
// parallel; coalesced children cover their busy time, because their
// intervals interleave with their siblings on one goroutine.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		p := &t.spans[i]
		var ivs [][2]int64
		var covered int64
		for _, k := range kids[p.ID] {
			c := t.spans[k]
			if c.Coalesced {
				covered += c.BusyNs
				continue
			}
			lo, hi := max(c.StartNs, p.StartNs), min(c.EndNs, p.EndNs)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		covered += unionLen(ivs)
		p.SelfNs = max(p.BusyNs-covered, 0)
	}
	return append([]span(nil), t.spans...)
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time per layer over spans under root (root
// included).
func layerSelf(spans []span, root int) map[string]time.Duration {
	under := map[int]bool{root: true}
	out := map[string]time.Duration{}
	for _, s := range spans { // parents precede children
		if s.ID == root || under[s.Parent] {
			under[s.ID] = true
			out[s.Layer] += time.Duration(s.SelfNs)
		}
	}
	return out
}
