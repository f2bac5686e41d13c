package core

import (
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
)

// This file is the only bridge between the experiment engine and the
// observability layer. Subsystems (netsim, workload, analysis, openhash)
// stay obs-free — they expose plain single-goroutine counters, and core
// folds those into the registry at stage boundaries. Hot parallel paths
// (fleet collection) increment worker-local obs.Shards that park and fold
// at the same task-order frontier as their fbflow.Partials.

// coreObsIDs caches every counter and histogram ID the engine folds into.
// All registration happens in initObs, before any shard exists.
type coreObsIDs struct {
	// Fleet collection (fbflow tagging stage).
	fleetAttempts    obs.CounterID // flows offered to the tagger
	fleetRecords     obs.CounterID // sampled records merged into the dataset
	fleetMatrixCells obs.CounterID // demand cells packed in matrix mode
	fleetShardUs     obs.HistID    // per-shard wall time, µs

	// Simulated fabric (degraded-mode packet runs).
	netsimInjected    obs.CounterID
	netsimEnqueues    obs.CounterID
	netsimForwarded   obs.CounterID
	netsimDrops       obs.CounterID
	netsimFaultDrops  obs.CounterID
	netsimRerouted    obs.CounterID
	netsimRetransmits obs.CounterID
	netsimFaultEvents obs.CounterID
	netsimEvents      obs.CounterID // engine dispatches, replayed injections included
	netsimReplayed    obs.CounterID
	netsimHeapHigh    obs.HistID // per-run engine heap high-water

	// Mirror-trace generation (workload layer).
	tracePackets obs.CounterID
	traceBatches obs.CounterID

	// Analysis open-addressing tables.
	analysisRows    obs.CounterID
	analysisGrows   obs.CounterID
	analysisLoadPct obs.HistID

	// In-fabric telemetry (sampled path records).
	telemSampled     obs.CounterID
	telemHops        obs.CounterID
	telemDelivered   obs.CounterID
	telemDropped     obs.CounterID
	telemRerouted    obs.CounterID
	telemRetransmits obs.CounterID
}

// initObs registers the engine's metrics against Cfg.Obs. A nil registry
// makes every Counter call return the zero ID; the zero IDs are never
// dereferenced because shards and registry writes are nil-gated.
func (s *System) initObs() {
	r := s.Cfg.Obs
	if r == nil {
		return
	}
	ids := &s.obsIDs
	ids.fleetAttempts = r.Counter("fbdcnet_fleet_flow_attempts_total",
		"flows offered to the fbflow tagger during fleet collection")
	ids.fleetRecords = r.Counter("fbdcnet_fleet_records_total",
		"sampled fbflow records merged into the fleet dataset")
	ids.fleetMatrixCells = r.Counter("fbdcnet_fleet_matrix_cells_total",
		"rack-pair demand cells packed during matrix-mode fleet collection")
	ids.fleetShardUs = r.Histogram("fbdcnet_fleet_shard_us",
		"wall time of one fleet collection shard, microseconds")

	ids.netsimInjected = r.Counter("fbdcnet_netsim_injected_total",
		"packets injected into simulated fabrics")
	ids.netsimEnqueues = r.Counter("fbdcnet_netsim_enqueues_total",
		"packets accepted into switch buffers across all hops")
	ids.netsimForwarded = r.Counter("fbdcnet_netsim_forwarded_total",
		"packets transmitted from switch egress ports")
	ids.netsimDrops = r.Counter("fbdcnet_netsim_drops_total",
		"packets lost to shared-buffer exhaustion")
	ids.netsimFaultDrops = r.Counter("fbdcnet_netsim_fault_drops_total",
		"packets lost to down switches or links")
	ids.netsimRerouted = r.Counter("fbdcnet_netsim_rerouted_total",
		"packets ECMP re-hashed around dead paths")
	ids.netsimRetransmits = r.Counter("fbdcnet_netsim_retransmits_total",
		"retransmission attempts scheduled by the fault layer")
	ids.netsimFaultEvents = r.Counter("fbdcnet_netsim_fault_events_total",
		"fault onset transitions applied to fabric elements")
	ids.netsimEvents = r.Counter("fbdcnet_netsim_events_total",
		"events dispatched by fabric engines, replayed injections included")
	ids.netsimReplayed = r.Counter("fbdcnet_netsim_replayed_total",
		"headers injected into fabrics from replay sources")
	ids.netsimHeapHigh = r.Histogram("fbdcnet_netsim_heap_high_water",
		"most events queued at once in one fabric run's engine heap")

	ids.tracePackets = r.Counter("fbdcnet_workload_packets_total",
		"packet headers emitted by mirror-trace generators")
	ids.traceBatches = r.Counter("fbdcnet_workload_batches_total",
		"header slabs handed from generators to collectors")

	ids.analysisRows = r.Counter("fbdcnet_analysis_rows_total",
		"entries held in analysis open-addressing tables at trace end")
	ids.analysisGrows = r.Counter("fbdcnet_analysis_table_grows_total",
		"rehashes performed by analysis open-addressing tables")
	ids.analysisLoadPct = r.Histogram("fbdcnet_analysis_table_load_pct",
		"load factor (percent) of analysis tables at trace end")

	ids.telemSampled = r.Counter("fbdcnet_telemetry_sampled_total",
		"delivery attempts of telemetry-sampled flows (path records opened)")
	ids.telemHops = r.Counter("fbdcnet_telemetry_hops_total",
		"switch traversals recorded on sampled path records")
	ids.telemDelivered = r.Counter("fbdcnet_telemetry_delivered_total",
		"sampled attempts that reached their destination host")
	ids.telemDropped = r.Counter("fbdcnet_telemetry_dropped_total",
		"sampled attempts lost in the fabric, any cause")
	ids.telemRerouted = r.Counter("fbdcnet_telemetry_rerouted_total",
		"sampled attempts ECMP re-hashed off their hash post")
	ids.telemRetransmits = r.Counter("fbdcnet_telemetry_retransmits_total",
		"sampled attempts that were fault-layer retries")
}

// foldTrace folds one finished trace bundle's counters: headers and
// batches (total and per role) plus the table statistics of every
// analysis attached to the capture.
func (s *System) foldTrace(b *TraceBundle, batches int64) {
	r := s.Cfg.Obs
	if r == nil {
		return
	}
	r.AddCounter(s.obsIDs.tracePackets, b.Packets)
	r.AddCounter(s.obsIDs.traceBatches, batches)
	role := b.Role.String()
	r.Count(obs.Series("fbdcnet_workload_headers_total", "role", role), float64(b.Packets))
	r.Count(obs.Series("fbdcnet_workload_role_batches_total", "role", role), float64(batches))
	s.foldTableStats(b.Flows.TableStats())
	s.foldTableStats(b.Conc.TableStats())
	for _, m := range b.HH {
		for _, hh := range m {
			s.foldTableStats(hh.TableStats())
		}
	}
}

// foldTableStats folds open-addressing table statistics into the
// aggregate counters, the per-table labeled series, and the load-factor
// histogram.
func (s *System) foldTableStats(stats []analysis.TableStats) {
	r := s.Cfg.Obs
	if r == nil {
		return
	}
	for _, ts := range stats {
		r.AddCounter(s.obsIDs.analysisRows, int64(ts.Rows))
		r.AddCounter(s.obsIDs.analysisGrows, int64(ts.Grows))
		if ts.Cap > 0 {
			r.Observe(s.obsIDs.analysisLoadPct, int64(ts.LoadPct()))
		}
		r.Count(obs.Series("fbdcnet_analysis_table_rows_total", "table", ts.Name), float64(ts.Rows))
	}
}

// foldFabricStats folds one simulated-fabric run: the engine's dispatch
// counters, the switch-level packet accounting and the fault layer's
// reroute/retransmission counters.
func (s *System) foldFabricStats(fab *netsim.Fabric) {
	s.Cfg.Audit.BB().Record(audit.EvFault, "fabric-faults", fab.Faults().FaultEvents, 0)
	r := s.Cfg.Obs
	if r == nil {
		return
	}
	st := fab.Stats()
	r.AddCounter(s.obsIDs.netsimInjected, st.Injected)
	r.AddCounter(s.obsIDs.netsimEnqueues, st.Enqueues)
	r.AddCounter(s.obsIDs.netsimForwarded, st.Forwarded)
	r.AddCounter(s.obsIDs.netsimDrops, st.Drops)
	r.AddCounter(s.obsIDs.netsimFaultDrops, st.FaultDrops)
	fs := fab.Faults()
	r.AddCounter(s.obsIDs.netsimRerouted, fs.ReroutedPkts)
	r.AddCounter(s.obsIDs.netsimRetransmits, fs.Retransmits)
	r.AddCounter(s.obsIDs.netsimFaultEvents, fs.FaultEvents)
	es := fab.Eng.Stats()
	r.AddCounter(s.obsIDs.netsimEvents, es.Fired)
	r.AddCounter(s.obsIDs.netsimReplayed, es.Replayed)
	r.Observe(s.obsIDs.netsimHeapHigh, es.HeapHigh)
}

// foldTelemetry folds the merged telemetry experiment result: path-
// record totals, per-reason drop series, per-tier hop series and
// queuing-delay gauges, and the per-arm occupancy peaks.
func (s *System) foldTelemetry(res *TelemetryResult) {
	r := s.Cfg.Obs
	if r == nil {
		return
	}
	a := &res.Agg
	r.AddCounter(s.obsIDs.telemSampled, a.Sampled)
	r.AddCounter(s.obsIDs.telemHops, a.HopsTotal)
	r.AddCounter(s.obsIDs.telemDelivered, a.Delivered)
	r.AddCounter(s.obsIDs.telemDropped, a.Dropped)
	r.AddCounter(s.obsIDs.telemRerouted, a.Rerouted)
	r.AddCounter(s.obsIDs.telemRetransmits, a.Retransmit)
	for rc := telemetry.ReasonBufferDrop; rc < telemetry.NumReasons; rc++ {
		if v := a.DropsByReason[rc]; v > 0 {
			r.Count(obs.Series("fbdcnet_telemetry_drops_total", "reason", rc.String()), float64(v))
		}
	}
	for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
		ts := &a.Tiers[t]
		if ts.Hops == 0 {
			continue
		}
		r.Count(obs.Series("fbdcnet_telemetry_tier_hops_total", "tier", t.String()), float64(ts.Hops))
		r.SetGauge(obs.Series("fbdcnet_telemetry_tier_qdelay_mean_us", "tier", t.String()),
			ts.MeanQDelay()/1e3)
	}
	for i := range res.Arms {
		arm := &res.Arms[i]
		name := strings.ToLower(arm.Role.String())
		r.SetGauge(obs.Series("fbdcnet_telemetry_occ_p99_peak", "arm", name), MaxOf(arm.OccP99))
		r.SetGauge(obs.Series("fbdcnet_telemetry_occ_max_peak", "arm", name), MaxOf(arm.OccMax))
	}
}

// scaleName names a topology scale for the run manifest.
func scaleName(sc topology.Scale) string { return sc.String() }

// ManifestMeta describes this configuration for the run manifest.
func (c Config) ManifestMeta(tool string) obs.RunMeta {
	return obs.RunMeta{
		Tool: tool,
		Config: map[string]any{
			"scale":             scaleName(c.Scale),
			"seed":              c.Seed,
			"short_trace_sec":   c.ShortTraceSec,
			"long_trace_sec":    c.LongTraceSec,
			"fleet_windows":     c.FleetWindows,
			"fleet_window_sec":  c.FleetWindowSec,
			"fleet_samples":     c.FleetSamples,
			"fleet_matrix":      c.FleetMatrix,
			"mem_ceiling_bytes": c.MemCeilingBytes,
			"parallelism":       c.Workers(),
			"taggers":           c.TaggerWorkers(),
			"fault_scenario":    c.FaultScenario,
			"trace_sample":      c.TraceSample,
			"queue_interval_us": int64(c.QueueInterval / netsim.Microsecond),
			"sketch_mode":       c.SketchMode,
			"audit":             c.Audit.Enabled(),
		},
	}
}
