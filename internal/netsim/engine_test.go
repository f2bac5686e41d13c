package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"fbdcnet/internal/packet"
)

// TestEngineHeapStress drives the typed heap with an adversarial
// insertion pattern — descending times, heavy same-time ties, interleaved
// scheduling from inside handlers — and checks the dispatch order against
// a stable-sorted reference.
func TestEngineHeapStress(t *testing.T) {
	var e Engine
	type stamp struct {
		at  Time
		id  int
		ins int // insertion order, the FIFO tie-break contract
	}
	var want []stamp
	var got []stamp

	id := 0
	schedule := func(at Time) {
		s := stamp{at: at, id: id, ins: id}
		id++
		want = append(want, s)
		e.At(at, func() {
			got = append(got, stamp{at: e.Now(), id: s.id, ins: s.ins})
		})
	}

	// Descending times with ties every third insert.
	for i := 0; i < 300; i++ {
		schedule(Time((300 - i) % 37))
	}
	// Events scheduled from inside a handler land after already-queued
	// same-time events.
	e.At(5, func() {
		e.After(0, func() { got = append(got, stamp{at: e.Now(), id: -1, ins: 1 << 30}) })
	})
	want = append(want, stamp{at: 5, id: -1, ins: 1 << 30})

	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

	if n := e.Run(1000); n != len(want)+1 { // +1 for the wrapper at t=5
		t.Fatalf("ran %d events, want %d", n, len(want)+1)
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].at != want[i].at {
			t.Fatalf("event %d: got (t=%d id=%d), want (t=%d id=%d)",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
}

// replayWindow builds k random header streams, each non-decreasing in
// Time, with heavy same-time ties within and across streams. Size holds
// a window-unique id.
func replayWindow(r *rand.Rand, k int, id *uint32) [][]packet.Header {
	streams := make([][]packet.Header, k)
	for s := range streams {
		n := r.Intn(40)
		t := Time(r.Intn(4))
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				t += Time(r.Intn(3))
			}
			*id++
			streams[s] = append(streams[s], packet.Header{Time: t, Size: *id})
		}
	}
	return streams
}

// TestReplayMatchesPerPacketAt drives random windows once through the
// per-packet At loop the replay replaces (stable-sort the concatenation,
// one closure per header) and once through Replay, and requires the same
// dispatch sequence: heap events scheduled before the replay at equal
// times, events scheduled from inside inject (at After(0) and later),
// non-zero offsets, arrivals clamped to the call time, and a second
// window replayed after the first drained.
func TestReplayMatchesPerPacketAt(t *testing.T) {
	type stamp struct {
		at   Time
		id   uint32 // header id; pre-scheduled and child events use tags below
		kind byte
	}
	for trial := 0; trial < 300; trial++ {
		seed := int64(trial)
		run := func(useReplay bool) []stamp {
			r := rand.New(rand.NewSource(seed))
			var e Engine
			var got []stamp
			record := func(kind byte, id uint32) func() {
				return func() { got = append(got, stamp{e.Now(), id, kind}) }
			}
			inject := func(h packet.Header) {
				got = append(got, stamp{e.Now(), h.Size, 'p'})
				if h.Time > e.Now() { // earlier stamps are clamped arrivals
					t.Fatalf("header stamped %d dispatched early, at %d", h.Time, e.Now())
				}
				switch h.Size % 4 {
				case 0:
					e.After(0, record('c', h.Size))
				case 1:
					e.After(Time(h.Size%3), record('d', h.Size))
				}
			}
			var id uint32
			for round := 0; round < 2; round++ {
				base := e.Now()
				streams := replayWindow(r, 1+r.Intn(6), &id)
				// Heap events at times the window also uses.
				for i := 0; i < 8; i++ {
					e.At(base+Time(r.Intn(8)), record('h', uint32(round*100+i)))
				}
				// Offsets that land the window ahead of, on, and partly
				// behind the current time (behind = clamped to now).
				offset := base + Time(r.Intn(5)) - 2
				if useReplay {
					e.Replay(streams, offset, inject)
				} else {
					var all []packet.Header
					for _, st := range streams {
						all = append(all, st...)
					}
					sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
					for _, h := range all {
						h := h
						h.Time += offset
						e.At(h.Time, func() { inject(h) })
					}
				}
				e.At(base+3, record('a', uint32(round))) // scheduled after the window
				e.Run(base + 1000)
				if e.Pending() != 0 {
					t.Fatalf("trial %d: %d events pending after drain", trial, e.Pending())
				}
			}
			return got
		}
		want, got := run(false), run(true)
		if len(got) != len(want) {
			t.Fatalf("trial %d: replay dispatched %d events, per-packet At %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d: replay %+v, per-packet At %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestReplayPanics pins the replay's two misuse checks: a stream that
// goes back in time, and a second Replay before the first drained.
func TestReplayPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	nop := func(packet.Header) {}
	expectPanic("non-monotone stream", func() {
		var e Engine
		e.Replay([][]packet.Header{{{Time: 1}}, {{Time: 2}, {Time: 5}, {Time: 3}}}, 0, nop)
		e.Run(10)
	})
	expectPanic("overlapping replays", func() {
		var e Engine
		e.Replay([][]packet.Header{{{Time: 1}}}, 0, nop)
		e.Replay([][]packet.Header{{{Time: 2}}}, 0, nop)
	})
}

// TestReplayLeavesStreamsUntouched: callers replay one window into
// several fabrics, so Replay must not write to the streams it reads.
func TestReplayLeavesStreamsUntouched(t *testing.T) {
	streams := replayWindow(rand.New(rand.NewSource(7)), 5, new(uint32))
	var before [][]packet.Header
	for _, st := range streams {
		before = append(before, append([]packet.Header(nil), st...))
	}
	for arm := 0; arm < 2; arm++ {
		var e Engine
		e.Replay(streams, 1000, func(packet.Header) {})
		e.Run(Second)
	}
	for s := range streams {
		for i := range streams[s] {
			if streams[s][i] != before[s][i] {
				t.Fatalf("stream %d header %d changed: %+v, was %+v", s, i, streams[s][i], before[s][i])
			}
		}
	}
}
