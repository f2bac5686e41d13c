package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Sizes of the workloads. Each is a closed loop: one client does a fixed
// amount of work per operation, then the next operation starts.
const (
	shortTraceSec  = 30 // golden transcript's -short
	longTraceSec   = 60 // golden transcript's -long
	fig15Windows   = 1  // one Figure 15 window is ~14 s on a 2-core box
	fleetWindows   = 4  // windows of the `large` fleet day per operation
	maxClientWidth = 2  // compute goroutines / agents / connections
	// hadoopWeight is what one Hadoop trace packet counts for in
	// host-traces' work: a Hadoop packet costs about half the CPU time and
	// allocation of a Web or cache packet, and the Hadoop bundles' packet
	// counts swing by 100x between seeds, so raw packets per second would
	// measure the seed's role mix rather than the program.
	hadoopWeight = 0.5
)

// hostSections are the suite sections host-traces renders: every
// analysis section of the monitored-host pipeline, none of the fabric.
var hostSections = []string{
	"table2", "table3", "table4", "section41",
	"figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
	"figure10-11", "figure12", "figure13", "figure14", "figure16-17",
}

// traceBundles are the (role, seconds) bundles core.Prewarm generates:
// the four monitored roles at the short length and the Figure 6/7/9
// roles at the long length.
func traceBundles() []bundle {
	var out []bundle
	for _, r := range core.MonitoredRoles {
		out = append(out, bundle{r, shortTraceSec})
	}
	for _, r := range []topology.Role{topology.RoleWeb, topology.RoleCacheFollower, topology.RoleHadoop} {
		out = append(out, bundle{r, longTraceSec})
	}
	return out
}

type bundle struct {
	role topology.Role
	sec  int
}

// instance is what one operation needs, built during set-up.
type instance struct {
	sys    *core.System
	agents []*core.System
	ln     net.Listener
	dir    string // holds the socket
	sock   string
}

// opResult is one operation's outcome: the work it completed, in the
// workload's unit, and its canonical outputs, which the checker hashes.
type opResult struct {
	work    float64
	outputs map[string][]byte
	err     error
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	unit string // unit of work: <unit>_per_s is the reported throughput
	// width is the number of compute goroutines (workers, taggers or
	// agents) the workload asks for; the benchmark uses at most nproc.
	width int
	// agents marks a workload that collects through width agents, each
	// on its own connection.
	agents bool
	// config builds the program's configuration from the seed and the
	// client width; the program receives nothing else.
	config func(seed uint64, width int) core.Config
	setup  func(cfg core.Config, width int) (*instance, error)
	// run is the timed operation. With a tracer it wraps every public
	// call in a span under parent; with nil it runs untraced.
	run func(in *instance, t *tracer, parent int) opResult
	// work, when set, computes the operation's work count outside the
	// timed region (it is deterministic per seed).
	work func(cfg core.Config) float64
	// reference names the workload whose expected outputs this one must
	// reproduce byte for byte.
	reference string
	// probe replays the workload's inputs through each layer's public
	// functions; see probes.go.
	probe func(p *prober) error
	// params are the workload's parameters, stamped into provenance.
	params func(cfg core.Config, width int) map[string]any
}

func baseConfig(seed uint64, scale topology.Scale, width int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.ShortTraceSec, cfg.LongTraceSec = shortTraceSec, longTraceSec
	cfg.TraceSample = 0
	cfg.Parallelism, cfg.Taggers = width, width
	return cfg
}

func commonParams(cfg core.Config) map[string]any {
	return map[string]any{
		"scale": cfg.Scale.String(), "seed": cfg.Seed,
		"parallelism": cfg.Parallelism, "taggers": cfg.Taggers,
	}
}

func fleetParams(cfg core.Config) map[string]any {
	m := commonParams(cfg)
	m["fleet_windows"] = cfg.FleetWindows
	m["fleet_window_sec"] = cfg.FleetWindowSec
	m["fleet_samples"] = cfg.FleetSamples
	m["fleet_matrix"] = cfg.FleetMatrix
	return m
}

func singleSystem(cfg core.Config, _ int) (*instance, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &instance{sys: sys}, nil
}

var workloads = []*workloadDef{
	{
		name:  "switch-buffer",
		unit:  "pkts",
		width: 1, // Figure15 replays on one goroutine
		config: func(seed uint64, width int) core.Config {
			return baseConfig(seed, topology.ScaleTiny, width)
		},
		setup: singleSystem,
		run:   runSwitchBuffer,
		work: func(cfg core.Config) float64 {
			sys := core.MustNewSystem(cfg)
			var n int64
			count := workload.CollectorFunc(func(packet.Header) { n++ })
			fc := fig15Config()
			for w := 0; w < fc.Windows; w++ {
				for _, h := range fig15Hosts(sys) {
					fig15Trace(sys, fc, w, h, count).Run(netsim.Time(fc.WindowSec) * netsim.Second)
				}
			}
			return float64(n)
		},
		probe: probeSwitchBuffer,
		params: func(cfg core.Config, width int) map[string]any {
			m := commonParams(cfg)
			fc := fig15Config()
			m["figure15_windows"] = fc.Windows
			m["figure15_window_sec"] = fc.WindowSec
			m["figure15_load_boost"] = fc.LoadBoost
			m["figure15_buf_bytes"] = fc.BufBytes
			return m
		},
	},
	{
		name: "host-traces",
		unit: "weighted_pkts",
		// One Prewarm worker: with two, whichever bundle straggles (the
		// Hadoop ones, whose size swings by seed) sets wall time, and
		// throughput would swing by ±20% between seeds.
		width: 1,
		config: func(seed uint64, width int) core.Config {
			return baseConfig(seed, topology.ScaleTiny, width)
		},
		setup: singleSystem,
		run:   runHostTraces,
		probe: probeHostTraces,
		params: func(cfg core.Config, width int) map[string]any {
			m := fleetParams(cfg)
			m["short_trace_sec"] = cfg.ShortTraceSec
			m["long_trace_sec"] = cfg.LongTraceSec
			m["trace_sample"] = cfg.TraceSample
			m["sections"] = hostSections
			return m
		},
	},
	{
		name:   "fleet-inproc",
		unit:   "host_windows",
		width:  maxClientWidth,
		config: fleetConfig,
		setup:  singleSystem,
		run:    runFleetInproc,
		probe:  probeFleetInproc,
		params: func(cfg core.Config, width int) map[string]any { return fleetParams(cfg) },
	},
	{
		name:      "fleet-agents",
		unit:      "host_windows",
		width:     maxClientWidth,
		agents:    true,
		config:    fleetConfig,
		setup:     setupAgents,
		run:       runFleetAgents,
		reference: "fleet-inproc",
		probe:     probeFleetAgents,
		params: func(cfg core.Config, width int) map[string]any {
			m := fleetParams(cfg)
			m["agents"] = width
			m["agent_transport"] = "unix"
			return m
		},
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// --- switch-buffer -------------------------------------------------------

func fig15Config() core.Figure15Config {
	fc := core.DefaultFigure15Config()
	fc.Windows = fig15Windows
	return fc
}

func runSwitchBuffer(in *instance, t *tracer, parent int) opResult {
	fc := fig15Config()
	var res *core.Figure15Result
	t.call(parent, "Figure15", "core", func() { res = in.sys.Figure15(fc) })
	if err := validFigure15(res, fc); err != nil {
		return opResult{err: err}
	}
	b, err := json.Marshal(res)
	return opResult{outputs: map[string][]byte{"figure15": b}, err: err}
}

// validFigure15 holds on any seed: one point per window, normalized
// occupancy within the buffer, no negative drop counts.
func validFigure15(r *core.Figure15Result, fc core.Figure15Config) error {
	series := [][]float64{r.WebMedian, r.WebMax, r.CacheMedian, r.CacheMax}
	for _, s := range series {
		for _, v := range s {
			if v < 0 || v > 1 {
				return fmt.Errorf("figure15: occupancy %v outside [0, 1]", v)
			}
		}
	}
	if len(r.WebUtil) != fc.Windows || len(r.CacheUtil) != fc.Windows || len(r.Load) != fc.Windows {
		return fmt.Errorf("figure15: %d/%d/%d window points, want %d", len(r.WebUtil), len(r.CacheUtil), len(r.Load), fc.Windows)
	}
	for i := range r.WebDrops {
		if r.WebDrops[i] < 0 || r.CacheDrops[i] < 0 {
			return errors.New("figure15: negative drop count")
		}
	}
	return nil
}

// fig15Hosts lists the hosts of the two racks Figure 15 monitors, in the
// order core.Figure15 synthesizes them.
func fig15Hosts(s *core.System) []topology.HostID {
	var hs []topology.HostID
	for _, role := range []topology.Role{topology.RoleWeb, topology.RoleCacheFollower} {
		rk := &s.Topo.Racks[s.Topo.HostRack(s.Monitored(role))]
		for i := 0; i < int(rk.NumHosts); i++ {
			hs = append(hs, rk.Host(i))
		}
	}
	return hs
}

// fig15Trace builds the generator of host h's stream in window w, with
// the seed and load core.Figure15 uses. The probe's result must equal
// the public call's, which pins this copy of the derivation.
func fig15Trace(s *core.System, fc core.Figure15Config, w int, h topology.HostID, sink workload.Collector) *services.Trace {
	load := core.DiurnalFactor(float64(w) / float64(fc.Windows))
	params := s.Cfg.Params.Scaled(load * fc.LoadBoost)
	seed := s.Cfg.Seed ^ 0xf15<<20 ^ uint64(h)<<8 ^ uint64(w)
	return services.NewTrace(s.Pick, h, seed, params, sink)
}

// --- host-traces ---------------------------------------------------------

func runHostTraces(in *instance, t *tracer, parent int) opResult {
	s := in.sys
	t.call(parent, "Prewarm", "core", s.Prewarm)
	out := map[string][]byte{}
	want := map[string]bool{}
	for _, n := range hostSections {
		want[n] = true
	}
	for _, sec := range core.SuiteSections(s) {
		if !want[sec.Name] {
			continue
		}
		var body string
		t.call(parent, sec.Name, "core", func() { body = sec.Run(s) })
		if body == "" {
			return opResult{err: fmt.Errorf("section %s rendered nothing", sec.Name)}
		}
		out["section:"+sec.Name] = []byte(body)
	}
	if len(out) != len(hostSections) {
		return opResult{err: fmt.Errorf("rendered %d of %d sections", len(out), len(hostSections))}
	}
	var work float64
	for _, b := range traceBundles() {
		pkts := float64(s.Trace(b.role, b.sec).Packets)
		if b.role == topology.RoleHadoop {
			pkts *= hadoopWeight
		}
		work += pkts
	}
	if work <= 0 {
		return opResult{err: errors.New("trace bundles carry no packets")}
	}
	return opResult{work: work, outputs: out}
}

// --- fleet-inproc / fleet-agents -----------------------------------------

func fleetConfig(seed uint64, width int) core.Config {
	cfg := baseConfig(seed, topology.ScaleLarge, width)
	cfg.FleetWindows = fleetWindows
	return cfg
}

// roleName is a role's name as it appears in metric names.
func roleName(r topology.Role) string { return strings.ToLower(r.String()) }

// fleetDigest renders the digest of s's fleet dataset and checks that
// collection covered every cell.
func fleetDigest(s *core.System, t *tracer, parent int) opResult {
	var b []byte
	var err error
	t.call(parent, "FleetDigest", "core", func() { b, err = s.FleetDigest().JSON() })
	if err != nil {
		return opResult{err: err}
	}
	if gaps := s.FleetCoverageGaps(); len(gaps) > 0 {
		return opResult{err: fmt.Errorf("fleet collection left %d coverage gaps", len(gaps))}
	}
	work := float64(s.Topo.NumHosts() * s.Cfg.FleetWindows) // host-windows collected
	return opResult{work: work, outputs: map[string][]byte{"digest": b}}
}

func runFleetInproc(in *instance, t *tracer, parent int) opResult {
	t.call(parent, "FleetDataset", "core", func() { in.sys.FleetDataset() })
	return fleetDigest(in.sys, t, parent)
}

// setupAgents builds the aggregator's System, one System per agent (as
// separate agent processes would), and the aggregator's unix socket. The
// socket path is relative so it stays short and inside the checkout.
func setupAgents(cfg core.Config, width int) (*instance, error) {
	in, err := singleSystem(cfg, width)
	if err != nil {
		return nil, err
	}
	for a := 0; a < width; a++ {
		acfg := cfg
		if cfg.Obs != nil { // each agent process has a registry of its own
			acfg.Obs = obs.NewRegistry()
		}
		asys, err := core.NewSystem(acfg)
		if err != nil {
			return nil, err
		}
		in.agents = append(in.agents, asys)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if in.dir, err = os.MkdirTemp(buildDir, "agg-"); err != nil {
		return nil, err
	}
	in.sock = filepath.Join(in.dir, "sock")
	if in.ln, err = net.Listen("unix", in.sock); err != nil {
		closeInstance(in)
		return nil, err
	}
	return in, nil
}

func runFleetAgents(in *instance, t *tracer, parent int) opResult {
	errs := make([]error, len(in.agents))
	var wg sync.WaitGroup
	for a, asys := range in.agents {
		wg.Add(1)
		go func(a int, asys *core.System) {
			defer wg.Done()
			t.call(parent, fmt.Sprintf("RunFleetAgent.%d", a), "core", func() {
				conn, err := core.DialFleetAgent("unix", in.sock, 5*time.Second)
				if err != nil {
					errs[a] = err
					return
				}
				defer conn.Close()
				errs[a] = asys.RunFleetAgent(a, len(in.agents), 0, conn, -1)
			})
		}(a, asys)
	}
	var res opResult
	t.call(parent, "ServeFleetAggregator", "core", func() {
		ds, gaps, err := in.sys.ServeFleetAggregator(in.ln, len(in.agents), 10*time.Second)
		if err == nil && !in.sys.InjectFleetDataset(ds, gaps) {
			err = errors.New("fleet dataset memoized before injection")
		}
		res.err = err
	})
	wg.Wait()
	if err := errors.Join(append(errs, res.err)...); err != nil {
		return opResult{err: err}
	}
	return fleetDigest(in.sys, t, parent)
}

// closeInstance releases what set-up opened and the operation did not.
func closeInstance(in *instance) {
	if in == nil {
		return
	}
	if in.ln != nil {
		in.ln.Close() // already closed by a finished aggregator; harmless twice
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// clientWidth is the number of compute goroutines, agents and
// connections w's client uses: its width, or fewer on a smaller machine.
func clientWidth(w *workloadDef) int { return min(w.width, runtime.NumCPU()) }
