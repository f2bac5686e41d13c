package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/obs"
)

// layers.json records, per workload, why it was chosen, the layers it
// loads, the layers it bypasses, and the per-layer metrics that must read
// zero because of that; and, per per-layer metric, the end-to-end metric
// it should move and on which workloads.
//
//go:embed layers.json
var layersJSON []byte

type layerDoc struct {
	Workloads map[string]struct {
		Zero []string `json:"zero"`
	} `json:"workloads"`
	Predictions []struct {
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
		On      []string `json:"on"`
		FlatOn  []string `json:"flat_on"`
	} `json:"predictions"`
}

func loadLayers() (*layerDoc, error) {
	var d layerDoc
	if err := json.Unmarshal(layersJSON, &d); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return &d, nil
}

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// traceRoleSecs are the core.trace_s.<role>.<sec> names, one per bundle.
func traceRoleSecs() []string {
	var out []string
	for _, b := range traceBundles() {
		out = append(out, fmt.Sprintf("core.trace_s.%s.%d", roleName(b.role), b.sec))
	}
	return out
}

// obsStages are the registry stages whose CPU and allocation the traced
// run folds in as rows of their own.
var obsStages = []string{"prewarm", "fleet-collect", "fleet-aggregate"}

// obsCounters are the registry counters folded in as rows, by row name.
var obsCounters = [][2]string{
	{"obs.workload_packets_total", "fbdcnet_workload_packets_total"},
	{"obs.workload_batches_total", "fbdcnet_workload_batches_total"},
	{"obs.analysis_rows_total", "fbdcnet_analysis_rows_total"},
	{"obs.analysis_table_grows_total", "fbdcnet_analysis_table_grows_total"},
	{"obs.fleet_flow_attempts_total", "fbdcnet_fleet_flow_attempts_total"},
	{"obs.fleet_records_total", "fbdcnet_fleet_records_total"},
	{"obs.netsim_injected_total", "fbdcnet_netsim_injected_total"},
}

// obsSeries are labelled registry series summed over their labels.
var obsSeries = [][2]string{
	{"obs.fleet_agent_rx_frames_total", "fbdcnet_fleet_agent_rx_frames_total"},
	{"obs.fleet_agent_rx_bytes_total", "fbdcnet_fleet_agent_rx_bytes_total"},
}

// perLayerMetrics lists every per-layer metric the traced run reports.
func perLayerMetrics() []layerMetric {
	l := func(name, unit, better string) layerMetric { return layerMetric{name, unit, better} }
	ms := []layerMetric{
		l("topology.build_s", "s", "lower"),
		l("services.trace_pkts", "count", "higher"),
		l("services.trace_ns_per_pkt", "ns/pkt", "lower"),
		l("services.trace_allocs_per_pkt", "allocs/pkt", "lower"),
		l("services.fleet_flows", "count", "higher"),
		l("services.fleet_ns_per_flow", "ns/flow", "lower"),
		l("workload.batches", "count", "lower"),
		l("workload.pkts_per_batch", "pkt/batch", "higher"),
		l("netsim.events", "count", "lower"),
		l("netsim.schedule_s", "s", "lower"),
		l("netsim.run_s", "s", "lower"),
		l("netsim.ns_per_event", "ns/event", "lower"),
		l("netsim.injected", "count", "higher"),
		l("netsim.forwarded", "count", "higher"),
		l("netsim.drops", "count", "lower"),
		l("netsim.drop_frac", "frac", "lower"),
		l("netsim.allocs_per_pkt", "allocs/pkt", "lower"),
	}
	for _, c := range consumerNames {
		ms = append(ms, l("analysis."+c+".ns_per_pkt", "ns/pkt", "lower"))
	}
	ms = append(ms,
		l("analysis.table_rows", "count", "lower"),
		l("analysis.table_grows", "count", "lower"),
		l("analysis.buffer_ns_per_sample", "ns/sample", "lower"),
		l("fbflow.records", "count", "higher"),
		l("fbflow.tag_ns_per_record", "ns/record", "lower"),
		l("fbflow.add_ns_per_record", "ns/record", "lower"),
		l("fbflow.merge_ns_per_cell", "ns/cell", "lower"),
		l("fbflow.partial_bytes_per_cell", "B/cell", "lower"),
		l("fbflow.encode_ns_per_cell", "ns/cell", "lower"),
		l("fbflow.decode_ns_per_cell", "ns/cell", "lower"),
		l("fbwire.frames", "count", "lower"),
		l("fbwire.bytes", "B", "lower"),
		l("fbwire.write_ns_per_frame", "ns/frame", "lower"),
		l("fbwire.read_ns_per_frame", "ns/frame", "lower"),
	)
	for _, n := range traceRoleSecs() {
		ms = append(ms, l(n, "s", "lower"))
	}
	ms = append(ms,
		l("core.prewarm_s", "s", "lower"),
		l("core.figure15_s", "s", "lower"),
		l("core.fleet_collect_s", "s", "lower"),
		l("core.fleet_worker_busy_frac", "frac", "higher"),
	)
	for a := 0; a < maxClientWidth; a++ {
		ms = append(ms, l(fmt.Sprintf("core.agent_s.%d", a), "s", "lower"))
	}
	ms = append(ms,
		l("core.frontier_stall_s", "s", "lower"),
		l("core.unattributed_frac", "frac", "lower"),
		l("goruntime.gc_cycles", "count", "lower"),
		l("goruntime.gc_cpu_s", "s", "lower"),
		l("goruntime.max_rss_mib", "MiB", "lower"),
		l("obs.trace_overhead_frac", "ratio", "lower"),
	)
	for _, c := range obsCounters {
		ms = append(ms, l(c[0], "count", "lower"))
	}
	for _, c := range obsSeries {
		ms = append(ms, l(c[0], "count", "lower"))
	}
	ms = append(ms, l("obs.fleet_sampling_coverage", "frac", "higher"))
	for _, st := range obsStages {
		ms = append(ms, l("obs.stage_cpu_s."+st, "s", "lower"), l("obs.stage_alloc_mib."+st, "MiB", "lower"))
	}
	return ms
}

// gcStats reads the runtime's cumulative GC cycle count and GC CPU time.
func gcStats() (cycles, cpuSec float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpuSec = s[1].Value.Float64()
	}
	return cycles, cpuSec
}

// tracedRun measures one untraced operation for reference, then one
// traced operation with the program's obs.Registry switched on and a span
// around every public call, then the workload's layer probes. It checks
// the outputs of both operations, the probes' replays, and that every
// layer the workload is predicted to bypass reports no work.
func tracedRun(w *workloadDef, cfg core.Config, width int, want map[string]string) (*result, error) {
	doc, err := loadLayers()
	if err != nil {
		return nil, err
	}
	chk := newRunChecker(w, width, want)
	// The untraced reference is the mean of one operation before and one
	// after the traced one, so warm-up does not bias the overhead ratio.
	var ref opSample
	untraced := func() error {
		s, r, _, err := measure(w, cfg, width)
		if err != nil {
			return err
		}
		chk.op(r)
		ref.wall += s.wall / 2
		ref.cpu += s.cpu / 2
		return nil
	}
	if err := untraced(); err != nil {
		return nil, err
	}
	rss := maxRSSMiB() // the peak of one untraced operation

	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, cfg.Seed, time.Now().UnixNano()))
	tcfg := cfg
	tcfg.Obs = obs.NewRegistry()
	root := tr.begin(-1, w.name, "bench")
	var in *instance
	tr.call(root, "setup", "core", func() { in, err = w.setup(tcfg, width) })
	if err != nil {
		return nil, err
	}
	defer closeInstance(in)
	runtime.GC()
	gcC0, gcS0 := gcStats()
	opID := tr.begin(root, "operation", "core")
	r := w.run(in, tr, opID)
	tr.end(opID)
	gcC1, gcS1 := gcStats()
	tr.end(root)
	chk.op(r)
	if r.err != nil {
		return nil, fmt.Errorf("traced operation: %w", r.err)
	}
	regs := []*obs.Registry{tcfg.Obs}
	for _, a := range in.agents {
		regs = append(regs, a.Cfg.Obs)
	}
	nestRegistrySpans(tr, regs, opID)
	if err := untraced(); err != nil {
		return nil, err
	}

	p := &prober{cfg: cfg, sys: in.sys, ref: r, t: tr, n: map[string]float64{}, chk: chk}
	p.root = tr.begin(-1, "probe", "probe")
	_, gcP0 := gcStats()
	if err := w.probe(p); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	_, gcP1 := gcStats()
	tr.end(p.root)

	spans := tr.finish()
	var opWall time.Duration
	for _, s := range spans {
		if s.ID == opID {
			opWall = time.Duration(s.BusyNs)
		}
	}
	m := layerValues(spans, p, tcfg.Obs.Manifest(tcfg.ManifestMeta("perfbench")))
	m["goruntime.gc_cycles"] = gcC1 - gcC0
	m["goruntime.gc_cpu_s"] = gcS1 - gcS0
	m["goruntime.max_rss_mib"] = rss
	m["obs.trace_overhead_frac"] = opWall.Seconds() / ref.wall.Seconds()
	attributed := gcP1 - gcP0
	for layer, d := range layerSelf(spans, p.root) {
		if layer != "probe" && layer != "topology" { // topology is set-up, not the operation
			attributed += d.Seconds()
		}
	}
	m["core.unattributed_frac"] = max(0, 1-attributed/ref.cpu.Seconds())

	for _, z := range doc.Workloads[w.name].Zero {
		v, ok := m[z]
		chk.check(ok && v == 0, "%s is predicted to bypass this layer but %s = %v", w.name, z, v)
	}
	out := map[string]metric{}
	for _, lm := range perLayerMetrics() {
		out[lm.Name] = metric{m[lm.Name], lm.Unit}
	}
	spanFile, err := writeSpans(tr.run, spans)
	if err != nil {
		return nil, err
	}
	detail := map[string]any{"spans_file": spanFile, "untraced_wall_s": ref.wall.Seconds(),
		"untraced_cpu_s": ref.cpu.Seconds(), "traced_wall_s": opWall.Seconds()}
	return &result{chk: chk, metrics: out, detail: detail}, nil
}

// newRunChecker returns the run's checker, with its first check: the
// client uses no more compute goroutines and connections than CPUs.
func newRunChecker(w *workloadDef, width int, want map[string]string) *checker {
	chk := newChecker(want)
	n := runtime.NumCPU()
	chk.check(width <= n && connsOf(w, width) <= n,
		"client uses %d goroutines and %d connections on %d CPUs", width, connsOf(w, width), n)
	return chk
}

// kind groups registry span names that never nest in one another:
// "trace:Web:30s" and "trace:Hadoop:60s" run side by side on workers, as
// do "fleet-agent-0" and "fleet-agent-1".
func kind(name string) string {
	k, _, _ := strings.Cut(name, ":")
	return strings.TrimRight(k, "-0123456789")
}

// nestRegistrySpans adds the registries' span events to the trace, each
// under the shortest span that contains it and is of another kind.
func nestRegistrySpans(tr *tracer, regs []*obs.Registry, opID int) {
	type ev struct {
		name       string
		start, end int64
	}
	var evs []ev
	for _, reg := range regs {
		es, _ := reg.SpanEvents()
		for _, e := range es {
			evs = append(evs, ev{e.Name, e.StartNs, e.EndNs})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].start != evs[j].start {
			return evs[i].start < evs[j].start
		}
		return evs[i].end > evs[j].end
	})
	tr.mu.Lock()
	cands := append([]span(nil), tr.spans[opID:]...)
	tr.mu.Unlock()
	for _, e := range evs {
		parent, best := opID, int64(-1)
		for _, c := range cands {
			if c.StartNs <= e.start && e.end <= c.EndNs && kind(c.Name) != kind(e.name) &&
				(best < 0 || c.EndNs-c.StartNs < best) && c.Layer != "probe" {
				parent, best = c.ID, c.EndNs-c.StartNs
			}
		}
		tr.interval(parent, e.name, "obs", e.start, e.end)
		tr.mu.Lock()
		cands = append(cands, tr.spans[len(tr.spans)-1])
		tr.mu.Unlock()
	}
}

// layerValues derives the per-layer metrics from the probe's spans and
// counts and the traced operation's registry and spans.
func layerValues(spans []span, p *prober, man *obs.Manifest) map[string]float64 {
	self := map[string]time.Duration{} // by span name, under the probe root
	under := map[int]bool{p.root: true}
	for _, s := range spans {
		if under[s.Parent] {
			under[s.ID] = true
			self[s.Name] += time.Duration(s.SelfNs)
		}
	}
	n := p.n
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPer := func(span string, count float64) float64 { return div(float64(self[span].Nanoseconds()), count) }
	pkts := n["trace_pkts"]
	m := map[string]float64{
		"topology.build_s":              self["topology.Build"].Seconds(),
		"services.trace_pkts":           pkts,
		"services.trace_allocs_per_pkt": div(n["trace_mallocs"], pkts),
		"services.fleet_flows":          n["fleet_flows"],
		"services.fleet_ns_per_flow":    nsPer("services.fleet", n["fleet_flows"]),
		"workload.batches":              n["batches"],
		"workload.pkts_per_batch":       div(pkts, n["batches"]),
		"netsim.events":                 n["events"],
		"netsim.schedule_s":             self["netsim.schedule"].Seconds(),
		"netsim.run_s":                  self["netsim.run"].Seconds(),
		"netsim.ns_per_event":           nsPer("netsim.run", n["fabric_events"]),
		"netsim.injected":               n["injected"],
		"netsim.forwarded":              n["forwarded"],
		"netsim.drops":                  n["drops"],
		"netsim.drop_frac":              div(n["drops"], n["injected"]),
		"netsim.allocs_per_pkt":         div(n["netsim_mallocs"], n["injected"]),
		"analysis.table_rows":           n["table_rows"],
		"analysis.table_grows":          n["table_grows"],
		"analysis.buffer_ns_per_sample": nsPer("analysis.buffer", n["buffer_samples"]),
		"fbflow.records":                n["records"],
		"fbflow.tag_ns_per_record":      nsPer("fbflow.tag", n["records"]),
		"fbflow.add_ns_per_record":      nsPer("fbflow.add", n["records"]),
		"fbflow.merge_ns_per_cell":      nsPer("fbflow.merge", n["cells"]),
		"fbflow.partial_bytes_per_cell": div(n["partial_bytes"], n["cells"]),
		"fbflow.encode_ns_per_cell":     nsPer("fbflow.encode", n["cells"]),
		"fbflow.decode_ns_per_cell":     nsPer("fbflow.decode", n["cells"]),
		"fbwire.frames":                 n["frames"],
		"fbwire.bytes":                  n["wire_bytes"],
		"fbwire.write_ns_per_frame":     nsPer("fbwire.write", n["frames"]),
		"fbwire.read_ns_per_frame":      nsPer("fbwire.read", n["frames"]),
		"core.fleet_worker_busy_frac":   man.Gauges["fbdcnet_fleet_worker_busy_frac"],
		"obs.fleet_sampling_coverage":   man.Gauges["fbdcnet_fleet_sampling_coverage"],
	}
	// Trace synthesis is the bundle spans' own time (their consumers are
	// child spans); on switch-buffer it is one coalesced span.
	var synth time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, "trace.") || name == "services.trace" {
			synth += d
		}
	}
	m["services.trace_ns_per_pkt"] = div(float64(synth.Nanoseconds()), pkts)
	for _, c := range consumerNames {
		m["analysis."+c+".ns_per_pkt"] = nsPer("analysis."+c, pkts)
	}

	stages := map[string]obs.StageRecord{}
	for _, st := range man.Stages {
		stages[st.Name] = st
	}
	for _, b := range traceBundles() {
		key := fmt.Sprintf("trace:%s:%ds", b.role, b.sec)
		m[fmt.Sprintf("core.trace_s.%s.%d", roleName(b.role), b.sec)] = stages[key].WallSeconds
	}
	m["core.prewarm_s"] = stages["prewarm"].WallSeconds
	m["core.fleet_collect_s"] = stages["fleet-collect"].WallSeconds + stages["fleet-aggregate"].WallSeconds
	for _, st := range obsStages {
		m["obs.stage_cpu_s."+st] = stages[st].CPUSeconds
		m["obs.stage_alloc_mib."+st] = float64(stages[st].AllocBytes) / (1 << 20)
	}
	for _, c := range obsCounters {
		m[c[0]] = float64(man.Counters[c[1]])
	}
	for _, c := range obsSeries {
		var sum float64
		for k, v := range man.Series {
			if strings.HasPrefix(k, c[1]) {
				sum += v
			}
		}
		m[c[0]] = sum
	}
	for k, v := range man.Series {
		if strings.HasPrefix(k, "fbdcnet_fleet_frontier_stall_seconds_total") {
			m["core.frontier_stall_s"] += v
		}
	}
	// Spans of the traced operation's public calls.
	for _, s := range spans {
		switch {
		case s.Name == "Figure15":
			m["core.figure15_s"] += time.Duration(s.BusyNs).Seconds()
		case strings.HasPrefix(s.Name, "RunFleetAgent."):
			m["core.agent_s."+strings.TrimPrefix(s.Name, "RunFleetAgent.")] = time.Duration(s.BusyNs).Seconds()
		}
	}
	return m
}

// writeSpans writes the run's spans once, at the end, under buildDir.
func writeSpans(run string, spans []span) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(buildDir, "spans-"+run+".json")
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
