// Package cli is the command wiring shared by dcsim, experiments and
// fbflowd: the common flags and their translation into a core.Config,
// the stderr logger, the audit recorder and black box, the live metrics
// endpoint, the closing run manifest and timeline, and the one fleet
// agent mode. Every distributed run re-executes its own binary in that
// agent mode — the sampling agents of Fbflow's agents → aggregation tier
// pipeline (§3.3.1) — so the arguments that start an agent and the flags
// that read them live side by side here.
//
// Usage errors (bad flags) exit 2 and run failures exit 1, after one
// slog line on stderr; stdout stays reserved for dataset output.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/obs/export"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
)

// Command holds one command's shared flags. Build it with Register
// before the flag set is parsed.
type Command struct {
	// Log is the stderr logger, set by Config.
	Log *slog.Logger
	// Agents is the shard agent count (-agents): agent mode's share of
	// the shard map, and fbflowd's aggregator fan-out.
	Agents int

	name                                                    string
	base                                                    core.Config
	scale                                                   string
	seed                                                    uint64
	windows, parallel                                       int
	matrix, sketch, audit, quiet                            bool
	metricsAddr, manifest, auditOut, auditPerturb, traceOut string

	agent, agentFaults bool
	id, incarnation    int
	connect            string
}

// Register defines the shared and agent-mode flags on fs. name labels
// the run manifest, base is the configuration the flags override, and
// manifest is the default -manifest path ("" writes none).
func Register(fs *flag.FlagSet, name string, base core.Config, manifest string) *Command {
	c := &Command{name: name, base: base}
	fs.StringVar(&c.scale, "scale", "tiny", "fleet scale: "+strings.Join(topology.ScaleNames(), "|"))
	fs.Uint64Var(&c.seed, "seed", 42, "deterministic seed")
	fs.IntVar(&c.windows, "windows", 0, "override the number of fleet observation windows (0 = config default)")
	fs.BoolVar(&c.matrix, "matrix", false, "synthesize fleet traffic as rack-pair demand matrices instead of per-host flow sampling (million-host scales)")
	fs.BoolVar(&c.sketch, "sketch", false, "replace exact heavy-hitter tables with bounded-memory sketches and add HLL distinct counts to fleet collection")
	fs.IntVar(&c.parallel, "parallel", 0, "worker goroutines for dataset generation (0 = GOMAXPROCS); results are identical at any value")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live metrics on this address (/metrics Prometheus text, /debug/vars expvar, / progress); spawned agents serve on the same host at port+1+id")
	fs.StringVar(&c.manifest, "manifest", manifest, "write the run manifest (config, stage timings, counters; distributed runs add the per-agent section) to this file; empty disables")
	fs.BoolVar(&c.audit, "audit", false, "record the determinism flight recorder: per-cell checkpoint digests into the manifest audit section plus a crash black box (compare manifests with cmd/digestdiff)")
	fs.StringVar(&c.auditOut, "audit-out", "", "with -audit: write the black-box JSON dump to this file on panic, SIGQUIT, or a planned agent kill")
	fs.StringVar(&c.auditPerturb, "audit-perturb", "", "with -audit: plant a ledger-only divergence at fleet-collect cell W:S (testing aid for digestdiff and CI; experiment outputs stay untouched)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the run timeline (all agents plus the aggregator on one clock) as Chrome trace-event JSON to this file")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress informational diagnostics on stderr (warnings and errors still print)")
	fs.BoolVar(&c.agent, "agent", false, "run as one fleet shard agent dialing -connect instead of doing the command's work (distributed runs start their agents this way)")
	fs.IntVar(&c.id, "id", 0, "with -agent: this agent's id in [0, agents)")
	fs.IntVar(&c.Agents, "agents", 4, "number of shard agents")
	fs.IntVar(&c.incarnation, "incarnation", 0, "with -agent: restart count of this agent (0 = first run)")
	fs.StringVar(&c.connect, "connect", "", "with -agent: aggregator address to dial (unix:/path, tcp:host:port, or bare socket path)")
	fs.BoolVar(&c.agentFaults, "agent-faults", false, "kill one agent at its seed-planned mid-window crash point and restart it as the next incarnation, recording the coverage gap")
	return c
}

// Config installs the stderr logger and returns the base configuration
// with the shared flags applied. Call it after the flag set is parsed.
func (c *Command) Config() core.Config {
	level := slog.LevelInfo
	if c.quiet {
		level = slog.LevelWarn
	}
	c.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(c.Log)
	cfg := c.base
	scale, ok := topology.ParseScale(c.scale)
	if !ok {
		c.Usage("unknown scale", "scale", c.scale, "have", strings.Join(topology.ScaleNames(), "|"))
	}
	cfg.Scale = scale
	cfg.Seed = c.seed
	if c.windows > 0 {
		cfg.FleetWindows = c.windows
	}
	cfg.FleetMatrix, cfg.SketchMode = c.matrix, c.sketch
	cfg.Parallelism, cfg.Taggers = c.parallel, c.parallel
	return cfg
}

// Usage logs a bad-flag error and exits 2.
func (c *Command) Usage(msg string, args ...any) {
	c.Log.Error(msg, args...)
	os.Exit(2)
}

// Must exits 1 with msg when err is non-nil.
func (c *Command) Must(err error, msg string) {
	if err != nil {
		c.Log.Error(msg, "err", err)
		os.Exit(1)
	}
}

// Run builds the system for cfg, with the audit recorder and metrics
// endpoint the flags ask for, and runs body on it — or, with -agent,
// the agent loop instead. It then writes the run manifest and timeline.
// A configuration core.NewSystem rejects (an unknown fault scenario) is
// a usage error: it exits 2 before any work.
func (c *Command) Run(cfg core.Config, body func(sys *core.System)) {
	cfg.Obs = obs.NewRegistry()
	if c.audit {
		cfg.Audit = audit.New()
		bb := audit.NewBlackBox(0)
		cfg.Audit.SetBlackBox(bb)
		defer bb.HandlePanic(c.auditOut)
		bb.InstallSignalDump(c.auditOut)
		if c.auditPerturb != "" {
			w, s, err := parsePerturb(c.auditPerturb)
			if err != nil {
				c.Usage("bad -audit-perturb", "err", err)
			}
			cfg.Audit.Perturb(w, s)
			c.Log.Warn("planted ledger divergence", "window", w, "shard", s)
		}
	} else if c.auditPerturb != "" {
		c.Usage("-audit-perturb requires -audit")
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		c.Usage("building system", "err", err)
	}
	if c.metricsAddr != "" {
		srv, err := obs.Serve(c.metricsAddr, cfg.Obs)
		c.Must(err, "starting metrics endpoint")
		defer srv.Close()
		c.Log.Info("metrics endpoint listening", "addr", srv.Addr())
	}
	if c.agent {
		c.runAgent(sys)
	} else {
		body(sys)
	}
	if c.manifest != "" {
		m := cfg.Obs.Manifest(cfg.ManifestMeta(c.name))
		m.Agents = sys.AgentManifestRecords()
		m.Audit = cfg.Audit.Section()
		c.Must(m.Validate(), "run manifest fails schema validation")
		c.Must(m.WriteFile(c.manifest), "writing run manifest")
		c.Log.Info("wrote run manifest", "path", c.manifest, "agents", len(m.Agents))
	}
	if c.traceOut != "" {
		procs := export.FromRun(cfg.Obs, sys.AgentReports())
		c.Must(export.WriteFile(c.traceOut, procs), "writing run timeline")
		c.Log.Info("wrote run timeline", "path", c.traceOut, "procs", len(procs))
	}
}

// runAgent is agent mode: dial the aggregator, stream this agent's
// shard range, and exit with core.AgentCrashExitCode at the seed-planned
// crash point so the spawner restarts the next incarnation.
func (c *Command) runAgent(sys *core.System) {
	if c.connect == "" {
		c.Usage("-agent needs -connect")
	}
	crashAfter := int64(-1)
	if c.agentFaults {
		if plan := sys.PlanAgentCrash(c.Agents); plan.Agent == c.id && c.incarnation == 0 {
			crashAfter = plan.AfterTask
		}
	}
	network, addr := core.ParseListenSpec(c.connect)
	conn, err := core.DialFleetAgent(network, addr, 10*time.Second)
	c.Must(err, "agent dialing aggregator")
	err = sys.RunFleetAgent(c.id, c.Agents, uint32(c.incarnation), conn, crashAfter)
	conn.Close()
	if errors.Is(err, core.ErrPlannedCrash) {
		c.Log.Info("agent reached planned crash point", "agent", c.id, "task", crashAfter)
		// The planned kill is the black box's flight-recorder moment:
		// dump the ring before the process dies so the gap is debuggable.
		sys.Cfg.Audit.BB().Dump(c.auditOut, "planned-crash")
		os.Exit(core.AgentCrashExitCode)
	}
	c.Must(err, "agent failed")
}

// agentArgs returns the arguments that re-run this command as agent id,
// incarnation inc, of agents, dialing connect and reproducing cfg's
// fleet configuration.
func (c *Command) agentArgs(cfg core.Config, agents int, connect string, id, inc int) []string {
	args := []string{
		"-agent", "-id", strconv.Itoa(id), "-agents", strconv.Itoa(agents),
		"-incarnation", strconv.Itoa(inc), "-connect", connect,
		"-scale", cfg.Scale.String(),
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-windows", strconv.Itoa(cfg.FleetWindows),
		// The aggregator's manifest federates the agents; an agent
		// writes none of its own, whatever the command's default.
		"-manifest=",
		"-quiet",
	}
	if cfg.FleetMatrix {
		args = append(args, "-matrix")
	}
	if cfg.SketchMode {
		args = append(args, "-sketch")
	}
	if c.agentFaults {
		args = append(args, "-agent-faults")
	}
	if c.audit {
		// -audit propagates so agents ledger and forward their cells;
		// -audit-perturb deliberately does NOT — the planted divergence
		// belongs only to the aggregator's authoritative ledger.
		args = append(args, "-audit")
	}
	if maddr := core.AgentMetricsAddr(c.metricsAddr, id); maddr != "" {
		args = append(args, "-metrics-addr", maddr)
	}
	return args
}

// Distribute collects sys's fleet dataset through `agents` copies of
// this executable running in agent mode, restarting planned crashes, and
// warns about coverage gaps. An empty listen aggregates on a private
// unix socket; otherwise on that address spec (core.ParseListenSpec).
func (c *Command) Distribute(sys *core.System, agents int, listen string, reconnectWait time.Duration) {
	// Derive and validate every agent endpoint up front: a collision or
	// port overflow fails the launch instead of one agent dying later
	// with "address already in use". Agents run -quiet, so the resolved
	// table is announced here (a port-0 base lets each pick its own).
	addrs, err := core.AgentMetricsAddrs(c.metricsAddr, agents, c.metricsAddr)
	if err != nil {
		c.Usage("deriving agent metrics endpoints", "err", err)
	}
	for a, addr := range addrs {
		if addr != "" {
			c.Log.Info("agent metrics endpoint", "agent", a, "addr", addr)
		}
	}
	if listen == "" {
		gaps, err := sys.CollectFleetDistributed(agents, func(addr string, id, inc int) []string {
			return c.agentArgs(sys.Cfg, agents, "unix:"+addr, id, inc)
		})
		c.Must(err, "distributed fleet collection failed")
		c.warnGaps(gaps)
		return
	}
	network, addr := core.ParseListenSpec(listen)
	spawn, err := core.SelfExecSpawner(func(id, inc int) []string {
		return c.agentArgs(sys.Cfg, agents, network+":"+addr, id, inc)
	})
	c.Must(err, "resolving own executable")
	ds, gaps, err := sys.RunDistributedFleet(network, addr, agents, spawn, reconnectWait)
	c.Inject(sys, ds, gaps, err)
}

// Inject makes ds, aggregated with gaps, sys's fleet dataset and warns
// about the gaps. It exits 1 when the aggregation failed (err) or sys
// had already collected its dataset.
func (c *Command) Inject(sys *core.System, ds *fbflow.Dataset, gaps []core.CoverageGap, err error) {
	if err == nil && !sys.InjectFleetDataset(ds, gaps) {
		err = errors.New("fleet dataset already collected")
	}
	c.Must(err, "distributed fleet collection failed")
	c.warnGaps(gaps)
}

// warnGaps logs the coverage gaps of a distributed collection.
func (c *Command) warnGaps(gaps []core.CoverageGap) {
	if len(gaps) == 0 {
		return
	}
	cells := 0
	for _, g := range gaps {
		cells += g.Cells
	}
	c.Log.Warn("distributed collection has coverage gaps", "gaps", len(gaps), "cells", cells)
}

// WriteFile creates path and fills it through write, exiting 1 on any
// error.
func (c *Command) WriteFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	c.Must(err, "creating output file")
	if err := write(f); err != nil {
		f.Close()
		c.Must(err, "writing "+path)
	}
	c.Must(f.Close(), "closing "+path)
}

// WritePaths writes the telemetry experiment's retained path records as
// JSONL (traceview -paths reads them). The caller has checked that
// telemetry is on (positive TraceSample).
func (c *Command) WritePaths(sys *core.System, path string) {
	res := sys.Telemetry()
	c.WriteFile(path, func(w io.Writer) error { return telemetry.WriteRecords(w, res.Records, res.Switches) })
	c.Log.Info("wrote telemetry path records", "records", len(res.Records), "path", path)
}

// parsePerturb parses an -audit-perturb "W:S" cell spec.
func parsePerturb(spec string) (window, shard int, err error) {
	w, s, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("perturb spec %q is not WINDOW:SHARD", spec)
	}
	window, err = strconv.Atoi(w)
	if err != nil || window < 0 {
		return 0, 0, fmt.Errorf("perturb spec %q: bad window %q", spec, w)
	}
	shard, err = strconv.Atoi(s)
	if err != nil || shard < 0 {
		return 0, 0, fmt.Errorf("perturb spec %q: bad shard %q", spec, s)
	}
	return window, shard, nil
}
