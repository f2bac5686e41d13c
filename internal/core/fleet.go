package core

import (
	"runtime"
	"sync"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
)

// fleetShardHosts is the fixed host-range width of one fleet collection
// shard. It is a constant, not a function of the worker count: every
// (window, shard) task draws from an rng stream keyed by its own
// coordinates, so the partition must be identical no matter how many
// workers run it — that is what makes the collected dataset bit-identical
// at -parallel 1, 2, or 8.
const fleetShardHosts = 128

// fleetMatrixShardRacks is the rack-range width of one matrix-mode shard:
// matrix synthesis walks racks, not hosts, so shards partition the rack ID
// space. Like fleetShardHosts it is a constant so the task grid — and with
// it every shard's rng stream — is independent of the worker count.
const fleetMatrixShardRacks = 64

// FleetDataset runs the Fbflow collection over the whole fleet for the
// configured synthetic day and returns the aggregated dataset. The result
// is memoized: Table 3, Figure 5, and §4.1 share one collection run, as
// they did in the paper.
//
// Collection is sharded by (window, host-range) across
// Config.TaggerWorkers() workers — the modern form of the tagger stage:
// each worker generates its shard's flows, tags them inline, and
// accumulates into a shard-local partial dataset. Partials merge in task
// order, so results do not depend on worker count or scheduling.
//
// With Config.FleetMatrix set, shards span rack ranges instead of host
// ranges and each worker synthesizes a demand matrix for its racks before
// drawing flows from it (see services.MatrixProgram).
func (s *System) FleetDataset() *fbflow.Dataset {
	s.fleetOnce.Do(func() { s.fleet = s.collectFleet() })
	return s.fleet
}

// fleetTask is one unit of fleet collection: one shard of hosts (sampling
// mode) or racks (matrix mode) within one observation window.
type fleetTask struct {
	window int
	shard  int
	lo, hi int // host ID range [lo, hi), or rack ID range in matrix mode
}

// fleetGrid is the (window × shard) task grid: spw shards per window,
// each owning a fixed-width range of hosts (racks in matrix mode). It is
// a pure function of topology size and collection mode, never of the
// worker or agent count. Grid index window*spw + shard is the
// deterministic merge order.
type fleetGrid struct {
	spw, width, units int
}

// fleetGrid returns the current configuration's task grid.
func (s *System) fleetGrid() fleetGrid {
	g := fleetGrid{width: fleetShardHosts, units: s.Topo.NumHosts()}
	if s.Cfg.FleetMatrix {
		g.width, g.units = fleetMatrixShardRacks, len(s.Topo.Racks)
	}
	g.spw = (g.units + g.width - 1) / g.width
	return g
}

// task returns the grid cell at grid index i.
func (g fleetGrid) task(i int) fleetTask {
	window, shard := i/g.spw, i%g.spw
	lo := shard * g.width
	return fleetTask{window: window, shard: shard, lo: lo, hi: min(lo+g.width, g.units)}
}

// cellScratch is one worker's cell-compute state: the tagger and the
// mode's program are read-only and shared by every worker, the demand
// matrix (matrix mode) is the worker's own, reset and reused across its
// tasks so steady-state synthesis is allocation-free.
type cellScratch struct {
	tagger *fbflow.Tagger
	prog   *services.FleetProgram
	mprog  *services.MatrixProgram
	mat    *services.DemandMatrix
}

// newCellScratch returns one cellScratch per worker.
func (s *System) newCellScratch(tagger *fbflow.Tagger, workers int) []cellScratch {
	sc := cellScratch{tagger: tagger}
	if s.Cfg.FleetMatrix {
		sc.mprog = services.NewMatrixProgram(s.Pick, s.Cfg.Params)
	} else {
		sc.prog = services.NewFleetProgram(s.Pick, s.Cfg.Params)
	}
	out := make([]cellScratch, workers)
	for i := range out {
		out[i] = sc
		if sc.mprog != nil {
			out[i].mat = services.NewDemandMatrix()
		}
	}
	return out
}

// computeCell runs task t into p, counting into sh (nil when
// observability is off), and returns the cell's checkpoints (zero when
// auditing is off). Every collection path — in-process workers, the
// serve loop, remote agents — computes cells here.
func (s *System) computeCell(sc *cellScratch, t fleetTask, p *fbflow.Partial, sh *obs.Shard) cellAudit {
	var t0 time.Time
	if sh != nil {
		t0 = time.Now()
	}
	var fh, mh *audit.Hash
	var fhv, mhv audit.Hash
	if s.Cfg.Audit.Enabled() {
		fh = &fhv
		if s.Cfg.FleetMatrix {
			mh = &mhv
		}
	}
	if s.Cfg.FleetMatrix {
		s.collectMatrixShard(sc, t, p, sh, fh, mh)
	} else {
		s.collectShard(sc, t, p, sh, fh)
	}
	var a cellAudit
	if fh != nil {
		a.fleet = audit.Checkpoint{Stage: audit.StageFleetCollect, Window: t.window, Shard: t.shard, Sum: fhv.Sum(), Count: fhv.Count()}
	}
	if mh != nil {
		a.synth = audit.Checkpoint{Stage: audit.StageMatrixSynth, Window: t.window, Shard: t.shard, Sum: mhv.Sum(), Count: mhv.Count()}
	}
	if sh != nil {
		sh.Observe(s.obsIDs.fleetShardUs, time.Since(t0).Microseconds())
	}
	return a
}

// collectFleet runs the sharded synthetic day through the merge
// frontier.
//
// Completed shards merge as soon as the task-order frontier reaches them
// (a worker finishing task i out of order parks it until every earlier
// task has merged), and merged envelopes return to the frontier for
// reuse. The merge sequence is therefore exactly task order —
// bit-identical across worker counts — while live memory stays bounded
// by the worker count plus the out-of-order window instead of the full
// task grid, which is what keeps the 10× fleet preset collectable.
//
// Each task's obs shard and checkpoints fold at the same frontier as its
// partial, so the registry's fold sequence and the ledger are task order
// too: metric state at any frontier is reproducible at any worker
// count, and a live scrape can never observe half a shard.
func (s *System) collectFleet() *fbflow.Dataset {
	reg := s.Cfg.Obs
	sp := reg.StartSpan("fleet-collect")
	defer sp.End()
	bb := s.Cfg.Audit.BB()
	bb.Record(audit.EvStageEnter, audit.StageFleetCollect, 0, 0)
	defer bb.Record(audit.EvStageExit, audit.StageFleetCollect, 0, 0)

	cells := s.fleetGrid().spw * s.Cfg.FleetWindows
	ds := fbflow.NewDataset()
	f := &frontier{s: s, prog: reg.NewProgress("fleet-windows", int64(s.Cfg.FleetWindows))}
	f.reset(ds, 0, cells)
	workers := min(s.Cfg.TaggerWorkers(), cells)
	busyNs := make([]int64, workers+1) // worker-owned slots, summed after the run
	collectStart := time.Now()
	s.collectCells(f, fbflow.NewTagger(s.Topo), workers, busyNs)

	if reg.Enabled() {
		f.prog.Set(int64(s.Cfg.FleetWindows))
		elapsed := time.Since(collectStart).Nanoseconds()
		var busy int64
		for _, b := range busyNs {
			busy += b
		}
		if workers > 0 && elapsed > 0 {
			reg.SetGauge("fbdcnet_fleet_worker_busy_frac",
				float64(busy)/float64(elapsed*int64(workers)))
		}
		if att := reg.CounterValue("fbdcnet_fleet_flow_attempts_total"); att > 0 {
			reg.SetGauge("fbdcnet_fleet_sampling_coverage",
				float64(reg.CounterValue("fbdcnet_fleet_records_total"))/float64(att))
		}
		// Record the post-collect heap so the run manifest carries the
		// memory footprint of the fleet stage (the dataset is fully merged
		// here, so live heap ≈ the stage's peak retained set). The gauge is
		// what cmd/manifestcheck compares against mem_ceiling_bytes.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		reg.SetGauge("fbdcnet_fleet_heap_peak_bytes", float64(ms.HeapAlloc))
		// Sketch mode carries HLL distinct-population sketches through the
		// same frontier; surface their estimates next to the byte gauges.
		if card := ds.Cardinality(); card != nil {
			reg.SetGauge("fbdcnet_fleet_distinct_flows", card.Flows())
			reg.SetGauge("fbdcnet_fleet_distinct_hosts", card.Hosts())
			reg.SetGauge("fbdcnet_fleet_distinct_racks", card.Racks())
		}
	}
	return ds
}

// collectCells computes every cell the armed frontier f spans on up to
// workers tagger workers and merges them through f. busyNs, when
// non-nil, receives each worker's compute time (observability on only).
func (s *System) collectCells(f *frontier, tagger *fbflow.Tagger, workers int, busyNs []int64) {
	grid := s.fleetGrid()
	scratch := s.newCellScratch(tagger, workers)
	var mu sync.Mutex
	runParallelWorkers(workers, len(f.slots), func(w, i int) {
		mu.Lock()
		c := f.get()
		mu.Unlock()
		var t0 time.Time
		if busyNs != nil && c.sh != nil {
			t0 = time.Now()
		}
		c.aud = s.computeCell(&scratch[w], grid.task(f.base+i), c.p, c.sh)
		if !t0.IsZero() {
			busyNs[w] += time.Since(t0).Nanoseconds()
		}
		mu.Lock()
		f.park(i, c)
		f.advance()
		mu.Unlock()
	})
}

// collectMatrixShard synthesizes one rack-range shard's demand matrix and
// draws its flows into the caller's partial. The worker's matrix is
// reused across tasks (Reset keeps its backing arrays), so the steady
// state allocates nothing. The rng stream is keyed by (seed, window, shard) exactly like
// sampling mode — a distinct seed fold keeps the two modes' streams
// decorrelated.
func (s *System) collectMatrixShard(sc *cellScratch, t fleetTask, into *fbflow.Partial, sh *obs.Shard, fh, mh *audit.Hash) {
	tagger, prog, m := sc.tagger, sc.mprog, sc.mat
	r := rng.NewKeyed(s.Cfg.Seed^0x3a721c, uint64(t.window), uint64(t.shard))
	load := DiurnalFactor(float64(t.window) / float64(s.Cfg.FleetWindows))
	minute := int64(t.window)
	ids := &s.obsIDs
	m.Reset()
	prog.Synth(r, t.lo, t.hi, s.Cfg.FleetWindowSec, load, m)
	sh.Add(ids.fleetMatrixCells, int64(m.Cells()))
	if mh.Enabled() {
		// Checkpoint the synthesized matrix before the draw: cells iterate
		// in insertion order, which Synth fixes per (seed, window, shard).
		m.EachCell(func(srcRack, dstRack int32, bytes float64) {
			mh.U64(uint64(uint32(srcRack))<<32 | uint64(uint32(dstRack)))
			mh.F64(bytes)
		})
	}
	prog.DrawFlows(r, m, func(src, dst topology.HostID, bytes float64) {
		sh.Inc(ids.fleetAttempts)
		if rec, ok := tagger.Flow(minute, s.Topo.Addr(src), s.Topo.Addr(dst), bytes); ok {
			into.Add(rec)
			sh.Inc(ids.fleetRecords)
			rec.FoldAudit(fh)
		}
	})
}

// collectShard generates and tags one task's flows into the caller's
// partial accumulator. The rng stream is a pure function of (seed,
// window, shard): the sample sequence a shard sees is fixed at
// configuration time, not at scheduling time. The obs shard counts
// offered versus sampled flows; a nil shard (observability disabled)
// costs two predicted branches per flow.
func (s *System) collectShard(sc *cellScratch, t fleetTask, into *fbflow.Partial, sh *obs.Shard, fh *audit.Hash) {
	tagger, prog := sc.tagger, sc.prog
	r := rng.NewKeyed(s.Cfg.Seed^0xf1ee7, uint64(t.window), uint64(t.shard))
	load := DiurnalFactor(float64(t.window) / float64(s.Cfg.FleetWindows))
	minute := int64(t.window)
	ids := &s.obsIDs
	var srcAddr packet.Addr
	emit := func(dst topology.HostID, bytes float64) {
		sh.Inc(ids.fleetAttempts)
		if rec, ok := tagger.Flow(minute, srcAddr, s.Topo.Addr(dst), bytes); ok {
			into.Add(rec)
			sh.Inc(ids.fleetRecords)
			rec.FoldAudit(fh)
		}
	}
	for src := topology.HostID(t.lo); src < topology.HostID(t.hi); src++ {
		srcAddr = s.Topo.Addr(src)
		prog.Flows(r, src, s.Cfg.FleetWindowSec, load, s.Cfg.FleetSamples, emit)
	}
}

// FleetDurationSec returns the total observed duration of the synthetic
// day in seconds.
func (s *System) FleetDurationSec() float64 {
	return float64(s.Cfg.FleetWindows) * s.Cfg.FleetWindowSec
}
