package core

import (
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
)

// fleetCell is one task cell's envelope on its way from the worker (or
// agent connection) that produced it to the merge frontier: the partial
// dataset, the obs section and the audit checkpoints. An in-process
// worker counts into sh, which folds in place; a remote cell arrives
// with its obs section already encoded as delta.
type fleetCell struct {
	p     *fbflow.Partial
	sh    *obs.Shard
	delta []byte
	aud   cellAudit
}

// newFleetCell returns an empty envelope for this configuration.
func (s *System) newFleetCell() *fleetCell {
	p := fbflow.NewPartial()
	if s.Cfg.SketchMode {
		p.EnableCardinality()
	}
	return &fleetCell{p: p, sh: s.Cfg.Obs.NewShard()}
}

// cellAudit is one cell's checkpoints: fleet-collect, plus matrix-synth
// in matrix mode. A zero Checkpoint (empty Stage) was never computed or
// never arrived; the frontier records it as a ledger hole.
type cellAudit struct {
	synth, fleet audit.Checkpoint
}

// wire appends a's present checkpoints to dst as a CELL frame's audit
// section, in ledger order: matrix-synth first.
func (a *cellAudit) wire(dst []fbwire.Checkpoint) []fbwire.Checkpoint {
	if a.synth.Stage != "" {
		dst = append(dst, fbwire.Checkpoint{Stage: fbwire.AuditMatrixSynth, Sum: a.synth.Sum, Count: a.synth.Count})
	}
	if a.fleet.Stage != "" {
		dst = append(dst, fbwire.Checkpoint{Stage: fbwire.AuditFleetCell, Sum: a.fleet.Sum, Count: a.fleet.Count})
	}
	return dst
}

// fromWire fills a from the audit section of cell (window, shard)'s
// CELL frame.
func (a *cellAudit) fromWire(window, shard int, cps []fbwire.Checkpoint) {
	for _, cp := range cps {
		v := audit.Checkpoint{Stage: audit.StageFleetCollect, Window: window, Shard: shard, Sum: cp.Sum, Count: cp.Count}
		if cp.Stage == fbwire.AuditMatrixSynth {
			v.Stage = audit.StageMatrixSynth
			a.synth = v
		} else {
			a.fleet = v
		}
	}
}

// frontier merges task cells in grid order — window-major, shard within
// window — no matter in which order they complete. A cell that completes
// ahead of the frontier parks until every earlier cell has merged or
// been gapped; the merge, the obs fold and the ledger appends all happen
// when the frontier consumes the cell, so the dataset, the registry and
// the audit ledger are the same pure function of the cell set at any
// worker or agent count. In-process collection, the serve loop and the
// distributed aggregator all merge through it.
//
// The frontier does no locking: its callers serialize every method
// under their own mutex.
type frontier struct {
	s    *System
	ds   *fbflow.Dataset
	prog *obs.Progress // window progress; nil disables

	spw     int          // shards per window of the grid
	base    int          // grid index of slots[0]
	slots   []*fleetCell // parked cells; &hole marks a gapped cell
	next    int          // first slot the frontier has not consumed
	parked  int          // cells parked ahead of the frontier
	hole    fleetCell    // sentinel, never released
	free    []*fleetCell // merged envelopes awaiting reuse
	scratch obs.Delta    // decode scratch for remote obs sections
}

// reset arms the frontier to merge grid cells [base, base+n) into ds.
func (f *frontier) reset(ds *fbflow.Dataset, base, n int) {
	f.ds, f.spw, f.base, f.next, f.parked = ds, f.s.fleetGrid().spw, base, 0, 0
	if cap(f.slots) < n {
		f.slots = make([]*fleetCell, n)
	}
	f.slots = f.slots[:n]
	clear(f.slots)
}

// get returns an empty envelope, recycled when one is free.
func (f *frontier) get() *fleetCell {
	if n := len(f.free); n > 0 {
		c := f.free[n-1]
		f.free = f.free[:n-1]
		return c
	}
	return f.s.newFleetCell()
}

// put recycles an envelope the frontier has consumed, or one its
// producer abandoned.
func (f *frontier) put(c *fleetCell) {
	c.p.Reset()
	c.delta = c.delta[:0]
	c.aud = cellAudit{}
	f.free = append(f.free, c)
}

// park hands slot i's computed cell to the frontier; the caller must not
// touch c afterwards.
func (f *frontier) park(i int, c *fleetCell) {
	f.slots[i] = c
	f.parked++
}

// gap marks slot i as never coming: the frontier skips it and records
// ledger holes in its place.
func (f *frontier) gap(i int) { f.slots[i] = &f.hole }

// advance consumes every cell the frontier can reach. A parked cell
// merges, folds its obs section and appends its checkpoints — matrix-
// synth first (it precedes the draw), then fleet-collect — and its
// envelope returns to the free list. A gapped cell, or a merged cell
// whose checkpoint is missing, becomes an explicit ledger hole: holes
// carry no hash, so a crashed run's ledger still compares byte for byte
// against a clean run's.
func (f *frontier) advance() {
	start := f.next
	aud := f.s.Cfg.Audit
	bb := aud.BB()
	spw := f.spw
	for ; f.next < len(f.slots) && f.slots[f.next] != nil; f.next++ {
		c := f.slots[f.next]
		f.slots[f.next] = nil
		window, shard := (f.base+f.next)/spw, (f.base+f.next)%spw
		a := &c.aud
		if c != &f.hole {
			f.ds.MergePartial(c.p)
			c.sh.Fold()
			if len(c.delta) > 0 && f.scratch.Decode(c.delta) == nil {
				f.s.Cfg.Obs.FoldDelta(&f.scratch)
			}
			f.parked--
		}
		if f.s.Cfg.FleetMatrix {
			if a.synth.Stage != "" {
				aud.Append(a.synth)
			} else {
				aud.Hole(audit.StageMatrixSynth, window, shard)
			}
		}
		if a.fleet.Stage != "" {
			aud.Append(a.fleet)
			bb.Record(audit.EvCellMerge, audit.StageFleetCollect, int64(window), int64(shard))
		} else {
			aud.Hole(audit.StageFleetCollect, window, shard)
			bb.Record(audit.EvCellHole, audit.StageFleetCollect, int64(window), int64(shard))
		}
		if c != &f.hole {
			f.put(c)
		}
	}
	if f.next > start {
		f.prog.Set(int64((f.base + f.next) / spw))
	}
}
