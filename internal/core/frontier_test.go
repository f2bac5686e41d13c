package core

import (
	"testing"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
)

// TestFrontierSteadyStateAllocs pins frontier park+advance at zero
// allocations in the steady state, with the registry and the recorder
// on: envelopes recycle through the free list, parking is a slot store,
// and the merge, the obs folds and the ledger appends reuse capacity.
func TestFrontierSteadyStateAllocs(t *testing.T) {
	cfg := QuickConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.Audit = audit.New()
	s := MustNewSystem(cfg)
	f := &frontier{s: s}
	ds := fbflow.NewDataset()
	const cells = 4
	cp := audit.Checkpoint{Stage: audit.StageFleetCollect, Sum: 1, Count: 1}
	round := func() {
		cfg.Audit.Reset()
		f.reset(ds, 0, cells)
		// Complete in reverse: every cell but the last parks ahead of the
		// frontier, then one advance merges them all.
		for i := cells - 1; i >= 0; i-- {
			c := f.get()
			c.aud.fleet = cp
			c.sh.Inc(s.obsIDs.fleetRecords)
			f.park(i, c)
			f.advance()
		}
		if f.next != cells || f.parked != 0 {
			t.Fatalf("frontier at %d with %d parked, want %d and 0", f.next, f.parked, cells)
		}
	}
	round() // warm the free list, the slots and the ledger
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("steady-state park+advance allocates %v/round", n)
	}
	// AllocsPerRun adds one warm-up round of its own.
	if got := cfg.Obs.CounterValue("fbdcnet_fleet_records_total"); got != 102*cells {
		t.Fatalf("folded %d records, want %d", got, 102*cells)
	}
}

// TestFrontierGapsBecomeHoles checks the frontier skips gapped slots,
// records them as ledger holes — and a merged cell whose checkpoints
// never arrived as holes too — while merged cells append their
// checkpoints in task order.
func TestFrontierGapsBecomeHoles(t *testing.T) {
	cfg := QuickConfig()
	cfg.FleetMatrix = true
	cfg.Audit = audit.New()
	s := MustNewSystem(cfg)
	grid := s.fleetGrid()
	f := &frontier{s: s}
	f.reset(fbflow.NewDataset(), 0, 3)
	c := f.get()
	last := grid.task(2)
	c.aud.synth = audit.Checkpoint{Stage: audit.StageMatrixSynth, Window: last.window, Shard: last.shard, Sum: 7, Count: 1}
	c.aud.fleet = audit.Checkpoint{Stage: audit.StageFleetCollect, Window: last.window, Shard: last.shard, Sum: 9, Count: 2}
	f.park(2, c)
	f.advance()
	f.park(0, f.get()) // merged, but its audit section never arrived
	f.advance()
	if f.next != 1 || f.parked != 1 {
		t.Fatalf("frontier at %d with %d parked, want 1 and 1", f.next, f.parked)
	}
	f.gap(1)
	f.advance()
	if f.next != 3 || f.parked != 0 {
		t.Fatalf("frontier at %d with %d parked, want 3 and 0", f.next, f.parked)
	}
	got := cfg.Audit.Checkpoints()
	if len(got) != 6 {
		t.Fatalf("ledger has %d checkpoints, want 6: %+v", len(got), got)
	}
	for i, cp := range got {
		// Canonical order: matrix-synth for cells 0..2, then fleet-collect.
		want := grid.task(i % 3)
		if cp.Window != want.window || cp.Shard != want.shard || cp.Hole != (i%3 != 2) {
			t.Fatalf("checkpoint %d = %+v, want cell (%d,%d) hole=%v", i, cp, want.window, want.shard, i%3 != 2)
		}
	}
}
