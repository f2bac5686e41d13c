// Command fbflowd is the distributed form of the fleet collection
// pipeline: one aggregator process merging length-prefixed binary
// CELL frames from N shard agents — the reproduction of Fbflow's
// agents → Scribe → aggregation tier shape (§3.3.1), scaled down to
// processes and sockets.
//
// The aggregator prints the fleet digest (canonical JSON) on stdout.
// For a fixed seed and shard map the digest is byte-identical to the
// single-process run (-single) at any agent count; a run that lost an
// agent mid-window carries an extra "coverage" block accounting the
// gapped cells and is otherwise identical to a run that never had them.
//
// Usage:
//
//	fbflowd -agents 4 -spawn                        # local 4-agent run, unix socket
//	fbflowd -single                                 # single-process reference digest
//	fbflowd -agents 4 -spawn -agent-faults          # seed-planned agent crash + restart
//	fbflowd -listen tcp:127.0.0.1:7461 -agents 2    # wait for external agents
//	fbflowd -agent -id 0 -agents 2 -connect tcp:host:7461   # one external agent
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/obs/export"
	"fbdcnet/internal/topology"
)

func main() {
	listen := flag.String("listen", "", "aggregator address (unix:/path, tcp:host:port, or bare socket path); empty with -spawn uses a private unix socket")
	agents := flag.Int("agents", 4, "number of shard agents")
	spawnLocal := flag.Bool("spawn", false, "spawn the agents locally as child processes of this aggregator")
	single := flag.Bool("single", false, "run the collection single-process and print the same digest (the byte-identity reference)")
	agentMode := flag.Bool("agent", false, "run as one shard agent instead of the aggregator")
	agentID := flag.Int("id", 0, "with -agent: this agent's id in [0, agents)")
	incarnation := flag.Int("incarnation", 0, "with -agent: restart count of this agent (0 = first run)")
	connect := flag.String("connect", "", "with -agent: aggregator address to dial")
	agentFaults := flag.Bool("agent-faults", false, "enable the seed-planned agent crash: the victim exits mid-window and is restarted with the next incarnation")
	reconnectWait := flag.Int("reconnect-wait-sec", 10, "seconds the aggregator waits for a dead agent to reconnect before gapping its remaining cells")

	scaleFlag := flag.String("scale", "tiny", "fleet scale: "+strings.Join(topology.ScaleNames(), "|"))
	seed := flag.Uint64("seed", 42, "deterministic seed")
	windows := flag.Int("windows", 0, "override the number of fleet observation windows (0 = config default)")
	matrix := flag.Bool("matrix", false, "synthesize fleet traffic as rack-pair demand matrices instead of per-host flow sampling")
	sketch := flag.Bool("sketch", false, "carry HLL distinct counts through collection (sketch mode)")
	parallel := flag.Int("parallel", 0, "with -single: worker goroutines (0 = GOMAXPROCS)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address (/metrics Prometheus text, /debug/vars expvar, / progress); with -spawn, agents serve on the same host at port+1+id")
	manifestPath := flag.String("manifest", "", "write the run manifest JSON here (aggregator runs include the federated per-agent section)")
	auditFlag := flag.Bool("audit", false, "record the determinism flight recorder: per-cell checkpoint digests into the manifest audit section plus a crash black box (compare manifests with cmd/digestdiff)")
	auditOut := flag.String("audit-out", "", "with -audit: write the black-box JSON dump to this file on panic, SIGQUIT, or a planned agent kill")
	auditPerturb := flag.String("audit-perturb", "", "with -audit: plant a ledger-only divergence at fleet-collect cell W:S (testing aid for digestdiff and CI; experiment outputs stay untouched)")
	traceOut := flag.String("trace-out", "", "write the unified run timeline here as Chrome trace-event JSON (open in Perfetto)")
	quiet := flag.Bool("quiet", false, "suppress informational diagnostics on stderr")
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	cfg := core.QuickConfig()
	scale, ok := topology.ParseScale(*scaleFlag)
	if !ok {
		logger.Error("unknown scale", "scale", *scaleFlag, "have", strings.Join(topology.ScaleNames(), "|"))
		os.Exit(2)
	}
	cfg.Scale = scale
	cfg.Seed = *seed
	if *windows > 0 {
		cfg.FleetWindows = *windows
	}
	cfg.FleetMatrix = *matrix
	cfg.SketchMode = *sketch
	cfg.Parallelism = *parallel
	cfg.Taggers = *parallel
	cfg.Obs = obs.NewRegistry()
	if *auditFlag {
		cfg.Audit = audit.New()
		bb := audit.NewBlackBox(0)
		cfg.Audit.SetBlackBox(bb)
		defer bb.HandlePanic(*auditOut)
		bb.InstallSignalDump(*auditOut)
		if *auditPerturb != "" {
			w, s, err := parsePerturb(*auditPerturb)
			if err != nil {
				logger.Error("bad -audit-perturb", "err", err)
				os.Exit(2)
			}
			cfg.Audit.Perturb(w, s)
			logger.Warn("planted ledger divergence", "window", w, "shard", s)
		}
	} else if *auditPerturb != "" {
		logger.Error("-audit-perturb requires -audit")
		os.Exit(2)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		logger.Error("building system", "err", err)
		os.Exit(1)
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, cfg.Obs)
		if err != nil {
			logger.Error("starting metrics endpoint", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("metrics endpoint listening", "addr", srv.Addr())
	}

	switch {
	case *agentMode:
		runAgent(sys, *agentID, *agents, *incarnation, *connect, *agentFaults, *auditOut, logger)
	case *single:
		printDigest(sys, logger)
	default:
		runAggregator(sys, *listen, *agents, *spawnLocal, *agentFaults,
			time.Duration(*reconnectWait)*time.Second, *scaleFlag, *metricsAddr, logger)
	}
	writeObsArtifacts(sys, *manifestPath, *traceOut, logger)
}

// writeObsArtifacts writes the run manifest and the Chrome trace-event
// timeline when the corresponding flags were given. Aggregator runs get
// the federated per-agent section and every agent's spans; other modes
// write their process-local view.
func writeObsArtifacts(sys *core.System, manifestPath, traceOut string, logger *slog.Logger) {
	if manifestPath != "" {
		m := sys.Cfg.Obs.Manifest(sys.Cfg.ManifestMeta("fbflowd"))
		m.Agents = sys.AgentManifestRecords()
		m.Audit = sys.Cfg.Audit.Section()
		if err := m.Validate(); err != nil {
			logger.Error("manifest failed schema validation", "err", err)
			os.Exit(1)
		}
		if err := m.WriteFile(manifestPath); err != nil {
			logger.Error("writing manifest", "path", manifestPath, "err", err)
			os.Exit(1)
		}
		logger.Info("manifest written", "path", manifestPath, "agents", len(m.Agents))
	}
	if traceOut != "" {
		procs := export.FromRun(sys.Cfg.Obs, sys.AgentReports())
		if err := export.WriteFile(traceOut, procs); err != nil {
			logger.Error("writing trace", "path", traceOut, "err", err)
			os.Exit(1)
		}
		logger.Info("trace written", "path", traceOut, "procs", len(procs))
	}
}

// runAgent dials the aggregator and streams this agent's shard range.
func runAgent(sys *core.System, id, agents, incarnation int, connect string, faults bool, auditOut string, logger *slog.Logger) {
	if connect == "" {
		logger.Error("-agent needs -connect")
		os.Exit(2)
	}
	crashAfter := int64(-1)
	if faults {
		if plan := sys.PlanAgentCrash(agents); plan.Agent == id && incarnation == 0 {
			crashAfter = plan.AfterTask
		}
	}
	network, addr := core.ParseListenSpec(connect)
	conn, err := core.DialFleetAgent(network, addr, 10*time.Second)
	if err != nil {
		logger.Error("dialing aggregator", "err", err)
		os.Exit(1)
	}
	err = sys.RunFleetAgent(id, agents, uint32(incarnation), conn, crashAfter)
	conn.Close()
	if errors.Is(err, core.ErrPlannedCrash) {
		logger.Info("agent reached planned crash point", "agent", id, "task", crashAfter)
		// The planned kill is the black box's flight-recorder moment:
		// dump the ring before the process dies so the gap is debuggable.
		sys.Cfg.Audit.BB().Dump(auditOut, "planned-crash")
		os.Exit(core.AgentCrashExitCode)
	}
	if err != nil {
		logger.Error("agent failed", "agent", id, "err", err)
		os.Exit(1)
	}
}

// runAggregator serves the merge frontier, optionally spawning the
// agents locally, and prints the digest.
func runAggregator(sys *core.System, listen string, agents int, spawnLocal, faults bool, reconnectWait time.Duration, scaleName, metricsAddr string, logger *slog.Logger) {
	agentArgsTo := func(connectSpec string, a, inc int) []string {
		args := []string{
			"-agent", "-id", strconv.Itoa(a), "-agents", strconv.Itoa(agents),
			"-incarnation", strconv.Itoa(inc), "-connect", connectSpec,
			"-scale", scaleName,
			"-seed", strconv.FormatUint(sys.Cfg.Seed, 10),
			"-windows", strconv.Itoa(sys.Cfg.FleetWindows),
			"-quiet",
		}
		if sys.Cfg.FleetMatrix {
			args = append(args, "-matrix")
		}
		if sys.Cfg.SketchMode {
			args = append(args, "-sketch")
		}
		if faults {
			args = append(args, "-agent-faults")
		}
		if sys.Cfg.Audit.Enabled() {
			// -audit propagates so agents ledger and forward their cells;
			// -audit-perturb deliberately does NOT — the planted divergence
			// belongs only to the aggregator's authoritative ledger.
			args = append(args, "-audit")
		}
		if addr := core.AgentMetricsAddr(metricsAddr, a); addr != "" {
			args = append(args, "-metrics-addr", addr)
		}
		return args
	}
	if spawnLocal {
		// Derive and validate the full per-agent endpoint table up front:
		// a collision with the aggregator's own endpoint or a port
		// overflow fails the launch here instead of one agent dying later
		// with an opaque bind error. Spawned agents run -quiet, so this is
		// also where their endpoints are announced (a port-0 base makes
		// each agent pick its own free port).
		addrs, err := core.AgentMetricsAddrs(metricsAddr, agents, metricsAddr)
		if err != nil {
			logger.Error("deriving agent metrics endpoints", "err", err)
			os.Exit(2)
		}
		for a, addr := range addrs {
			if addr != "" {
				logger.Info("agent metrics endpoint", "agent", a, "addr", addr)
			}
		}
	}
	agentArgs := func(addr string, a, inc int) []string {
		return agentArgsTo("unix:"+addr, a, inc)
	}

	var gaps []core.CoverageGap
	switch {
	case spawnLocal && listen == "":
		// The common local case: private unix socket, agents spawned and
		// restarted by the aggregator.
		var err error
		gaps, err = sys.CollectFleetDistributed(agents, agentArgs)
		if err != nil {
			logger.Error("distributed collection failed", "err", err)
			os.Exit(1)
		}
	case spawnLocal:
		// Explicit address but still self-spawned agents — useful for
		// exercising the tcp path locally.
		network, addr := core.ParseListenSpec(listen)
		spawn, err := core.SelfExecSpawner(func(a, inc int) []string { return agentArgsTo(network+":"+addr, a, inc) })
		if err != nil {
			logger.Error("resolving spawner", "err", err)
			os.Exit(1)
		}
		ds, g, err := sys.RunDistributedFleet(network, addr, agents, spawn, reconnectWait)
		if err != nil {
			logger.Error("distributed collection failed", "err", err)
			os.Exit(1)
		}
		gaps = g
		if !sys.InjectFleetDataset(ds, g) {
			logger.Error("fleet dataset already collected")
			os.Exit(1)
		}
	default:
		// External agents: listen and wait for them to dial in.
		network, addr := core.ParseListenSpec(listen)
		if listen == "" {
			network, addr = "unix", filepath.Join(os.TempDir(), fmt.Sprintf("fbflowd-%d.sock", os.Getpid()))
			defer os.Remove(addr)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			logger.Error("listening", "addr", listen, "err", err)
			os.Exit(1)
		}
		logger.Info("aggregator listening", "network", network, "addr", addr, "agents", agents)
		ds, g, err := sys.ServeFleetAggregator(ln, agents, reconnectWait)
		ln.Close()
		if err != nil {
			logger.Error("aggregation failed", "err", err)
			os.Exit(1)
		}
		gaps = g
		if !sys.InjectFleetDataset(ds, g) {
			logger.Error("fleet dataset already collected")
			os.Exit(1)
		}
	}
	if len(gaps) > 0 {
		cells := 0
		for _, g := range gaps {
			cells += g.Cells
		}
		logger.Warn("coverage gaps recorded", "gaps", len(gaps), "cells", cells)
	}
	printDigest(sys, logger)
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

// printDigest renders the canonical digest JSON on stdout.
func printDigest(sys *core.System, logger *slog.Logger) {
	b, err := sys.FleetDigest().JSON()
	if err != nil {
		logger.Error("rendering digest", "err", err)
		os.Exit(1)
	}
	os.Stdout.Write(b)
}
