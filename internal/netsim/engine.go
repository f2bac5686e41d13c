// Package netsim is a discrete-event, packet-level network simulator: an
// event engine, rate-limited links, and output-queued switches with a
// shared egress buffer pool.
//
// The simulator exists to reproduce the switching-layer observations in
// §6 of the paper — buffer occupancy sampled at 10 µs granularity,
// egress drops, and tiered link utilization (§4.1) — which cannot be
// derived from packet-header traces alone. Traffic enters via Fabric's
// Inject, is routed host→RSW→CSW→FC along ECMP paths chosen by flow hash,
// and exits into host sinks.
//
// The engine has two event sources. The heap holds what is in flight:
// scheduled funcs (samplers, fault transitions, retransmissions) and
// packets, each of which is its own event — a *Packet has at most one
// pending departure or arrival, so switches schedule the packet itself
// rather than a closure. A replay source (Engine.Replay) holds what has
// not entered the network yet: a window of per-host header streams,
// merged lazily in time order beside the heap, so only events in flight
// occupy the heap. The replay reserves a contiguous block of
// sequence numbers when it is scheduled, so every tie between a replayed
// arrival and a heap event resolves exactly as if each arrival had been
// scheduled with At, in merged order, at that moment.
package netsim

import (
	"fmt"

	"fbdcnet/internal/packet"
)

// Time is simulation time in nanoseconds.
type Time = int64

// Common durations in simulation time units.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// firer is one pending engine event: a scheduled func or a packet.
type firer interface{ fire() }

// funcEvent adapts a func scheduled with At. A func value is
// pointer-shaped, so storing it in the interface does not allocate.
type funcEvent func()

func (f funcEvent) fire() { f() }

type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO, deterministically
	ev  firer
}

// before reports whether e should run before o: earlier time first,
// FIFO by sequence number on ties.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EngineStats are an engine's cumulative dispatch counters.
type EngineStats struct {
	Fired    int64 // events dispatched, replayed injections included
	Replayed int64 // headers injected from Replay sources
	HeapHigh int64 // most events ever queued in the heap at once
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// The event queue is a typed binary min-heap with inlined sift-up and
// sift-down: scheduling and dispatch are the simulator's hottest path,
// and the container/heap API would box every event through interface{}
// (two heap allocations per event, one on Push and one on Pop).
type Engine struct {
	now   Time
	seq   uint64
	heap  []event
	rep   replay
	stats EngineStats
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at time t. Scheduling in the past runs fn at the
// current time (immediately in event order).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, funcEvent(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// schedule queues ev at time t (clamped to now) behind every event
// already scheduled for t.
func (e *Engine) schedule(t Time, ev firer) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.heap = append(e.heap, event{at: t, seq: e.seq, ev: ev})
	if n := int64(len(e.heap)); n > e.stats.HeapHigh {
		e.stats.HeapHigh = n
	}
	e.siftUp(len(e.heap) - 1)
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event. The queue must be
// non-empty.
func (e *Engine) pop() event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the event reference so it can be collected
	e.heap = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return root
}

// Replay schedules a window of arrivals: every header of every stream is
// passed to inject at its Time plus offset (clamped to the current time,
// as At clamps), with the header's Time shifted by offset. Each stream
// must be non-decreasing in Time; Run panics on one that is not. Streams
// are merged lazily, ties broken by stream index then position, which is
// the order a stable sort of the streams' concatenation gives, and the
// merged arrivals take a contiguous block of sequence numbers reserved
// now. The result is event-for-event what calling At once per header in
// that order would do here, without a heap entry or closure per header.
//
// Replay never modifies the streams, but reads them until the last
// arrival is injected, so callers must not change them before then. Only
// one replay can be pending: calling Replay before the previous one has
// drained panics.
func (e *Engine) Replay(streams [][]packet.Header, offset Time, inject func(packet.Header)) {
	r := &e.rep
	if r.left > 0 {
		panic("netsim: Replay while an earlier replay is still pending")
	}
	r.cur = r.cur[:0]
	n := 0
	for s, st := range streams {
		if len(st) > 0 {
			r.cur = append(r.cur, cursor{t: st[0].Time, s: s})
			n += len(st)
		}
	}
	if n == 0 {
		return
	}
	for i := len(r.cur)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	r.streams, r.inject, r.offset, r.floor, r.left = streams, inject, offset, e.now, n
	r.seq = e.seq + 1
	e.seq += uint64(n)
	r.setHead()
}

// Run executes events in time order until the queue is empty or the next
// event is later than until. It returns the number of events executed,
// replayed injections included.
func (e *Engine) Run(until Time) int {
	n := 0
	r := &e.rep
	for {
		if r.left > 0 && (len(e.heap) == 0 || r.first(e.heap[0])) {
			if r.at > until {
				break
			}
			e.now = r.at
			inject := r.inject // pop drops the callback with the last arrival
			inject(r.pop())
			e.stats.Replayed++
			n++
			continue
		}
		if len(e.heap) == 0 || e.heap[0].at > until {
			break
		}
		ev := e.pop()
		e.now = ev.at
		ev.ev.fire()
		n++
	}
	e.stats.Fired += int64(n)
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events, replay arrivals not yet
// injected included.
func (e *Engine) Pending() int { return len(e.heap) + e.rep.left }

// Stats returns the engine's cumulative dispatch counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// replay is the engine's lazy k-way merge over one Replay window.
type replay struct {
	streams [][]packet.Header
	inject  func(packet.Header)
	offset  Time
	floor   Time     // Now at Replay: earlier arrivals clamp to it
	cur     []cursor // min-heap of stream heads by (t, s)
	at      Time     // dispatch time of the head arrival
	seq     uint64   // sequence number of the head arrival
	left    int      // arrivals not yet injected
}

// cursor is one stream's read position and the Time of its head.
type cursor struct {
	t    int64
	s, i int
}

func (a cursor) less(b cursor) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.s < b.s
}

// first reports whether the head arrival runs before heap event ev.
func (r *replay) first(ev event) bool {
	return event{at: r.at, seq: r.seq}.before(ev)
}

// setHead recomputes the head arrival's dispatch time.
func (r *replay) setHead() {
	r.at = r.cur[0].t + r.offset
	if r.at < r.floor {
		r.at = r.floor
	}
}

// pop removes the head arrival and returns it with Time shifted by the
// offset. The replay must be non-empty.
func (r *replay) pop() packet.Header {
	c := &r.cur[0]
	st := r.streams[c.s]
	h := st[c.i]
	if c.i++; c.i < len(st) {
		if st[c.i].Time < c.t {
			panic(fmt.Sprintf("netsim: Replay stream %d goes back in time at index %d (%d after %d)",
				c.s, c.i, st[c.i].Time, c.t))
		}
		c.t = st[c.i].Time
	} else {
		last := len(r.cur) - 1
		r.cur[0] = r.cur[last]
		r.cur = r.cur[:last]
	}
	r.left--
	r.seq++
	if r.left > 0 {
		r.down(0)
		r.setHead()
	} else {
		r.streams, r.inject = nil, nil
	}
	h.Time += r.offset
	return h
}

// down restores the cursor heap's order below index i.
func (r *replay) down(i int) {
	h := r.cur
	n := len(h)
	c0 := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if k := c + 1; k < n && h[k].less(h[c]) {
			c = k
		}
		if !h[c].less(c0) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = c0
}
