// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic datacenter and prints them in the paper's
// layout, one section per experiment.
//
// Stdout carries only the golden-checked experiment output (or the -json
// summary); every diagnostic goes to stderr through log/slog, so piping
// stdout to a file or diff stays clean. A run manifest (configuration,
// per-stage timings, packet counters) is written alongside the transcript,
// and -metrics-addr exposes live progress over HTTP while the run is hot.
//
// Usage:
//
//	experiments [-scale tiny|small|medium|large|xlarge] [-seed N] [-parallel N]
//	            [-matrix] [-windows N] [-mem-ceiling-mb N]
//	            [-short SECONDS] [-long SECONDS] [-only NAME]
//	            [-faults SCENARIO] [-trace-sample FRAC] [-queue-interval US]
//	            [-paths-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//	            [-metrics-addr HOST:PORT] [-manifest FILE] [-quiet]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/prof"
)

var (
	short         = flag.Int("short", 30, "short (sub-second analyses) trace seconds")
	long          = flag.Int("long", 60, "long (flow analyses) trace seconds")
	only          = flag.String("only", "", "run a single experiment (e.g. table3, figure12, ablations, faults)")
	jsonOut       = flag.Bool("json", false, "print a machine-readable summary instead of rendered tables")
	distributed   = flag.Int("distributed", 0, "collect the fleet dataset through this many local agent processes streaming binary partials to an in-process aggregator (0 = in-process collection)")
	memCeilingMB  = flag.Int64("mem-ceiling-mb", 0, "stamp this memory ceiling (MiB) into the run manifest; cmd/manifestcheck asserts the fleet heap peak stayed under it (0 = no ceiling)")
	faults        = flag.String("faults", "", "fault scenario for the degraded-mode section and summary ("+strings.Join(netsim.FaultScenarios(), "|")+")")
	traceSample   = flag.Float64("trace-sample", 0.1, "in-band telemetry flow sampling fraction (0 disables the telemetry section)")
	queueInterval = flag.Int("queue-interval", 200, "queue occupancy sampling interval, microseconds")
	pathsOut      = flag.String("paths-out", "", "write retained telemetry path records (JSONL, readable by traceview -paths) to this file")
	cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")

	cmd = cli.Register(flag.CommandLine, "experiments", core.DefaultConfig(), "run_manifest.json")
)

func main() {
	flag.Parse()
	cfg := cmd.Config()
	cfg.ShortTraceSec = *short
	cfg.LongTraceSec = *long
	cfg.MemCeilingBytes = *memCeilingMB << 20
	cfg.FaultScenario = *faults
	cfg.TraceSample = *traceSample
	cfg.QueueInterval = netsim.Time(*queueInterval) * netsim.Microsecond
	if *pathsOut != "" && cfg.TraceSample <= 0 {
		cmd.Usage("-paths-out needs a positive -trace-sample")
	}
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		cmd.Usage("starting profiler", "err", err)
	}
	defer stop()
	cmd.Run(cfg, func(sys *core.System) {
		if *distributed > 0 {
			cmd.Distribute(sys, *distributed, "", 0)
		}
		if *jsonOut {
			out, err := sys.Summarize().JSON()
			cmd.Must(err, "rendering summary")
			fmt.Println(string(out))
		} else if core.WriteSuite(os.Stdout, sys, *only) == 0 {
			cmd.Usage("no experiment matches filter", "only", *only)
		}
		if *pathsOut != "" {
			cmd.WritePaths(sys, *pathsOut)
		}
	})
}
