// Command dcsim runs the synthetic datacenter and exports its datasets:
// a port-mirror packet-header trace for one monitored host (the §3.3.2
// collection path) and/or a summary of the fleet-wide Fbflow view (the
// §3.3.1 path).
//
// Stdout carries only dataset output (rendered tables, -load summaries);
// diagnostics such as "wrote N headers" go to stderr through log/slog.
//
// Usage:
//
//	dcsim -mirror web -seconds 30 -out web.fbm     # write a binary trace
//	dcsim -fleet                                   # print the fleet view
//	dcsim -fleet -scale xlarge -matrix -windows 1  # million-host matrix window
//	dcsim -fleet -parallel 4                       # same view, 4 workers
//	dcsim -fleet -distributed 4                    # same view, 4 agent processes
//	dcsim -faults csw-down                         # degraded-mode fault run
//	dcsim -telemetry -paths-out paths.jsonl        # INT path records + occupancy
//	dcsim -serve -sketch -metrics-addr :9090       # endless rolling windows,
//	                                               # bounded memory, live gauges;
//	                                               # SIGHUP reloads -serve-config,
//	                                               # SIGINT/SIGTERM stop cleanly
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/mirror"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/prof"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

var roleNames = map[string]topology.Role{
	"web":     topology.RoleWeb,
	"cache-f": topology.RoleCacheFollower,
	"cache-l": topology.RoleCacheLeader,
	"hadoop":  topology.RoleHadoop,
	"mf":      topology.RoleMultifeed,
	"slb":     topology.RoleSLB,
	"db":      topology.RoleDB,
	"misc":    topology.RoleMisc,
}

var (
	mirrorRole    = flag.String("mirror", "", "write a mirror trace for this role (web|cache-f|cache-l|hadoop|mf|slb|db|misc)")
	seconds       = flag.Int("seconds", 30, "trace duration in seconds")
	out           = flag.String("out", "trace.fbm", "output trace file")
	pcapOut       = flag.String("pcap", "", "also export the mirror trace as a pcap file")
	fleet         = flag.Bool("fleet", false, "run the fleet-wide Fbflow view and print its summary")
	distributed   = flag.Int("distributed", 0, "with -fleet: collect through this many local agent processes streaming binary partials to an in-process aggregator (0 = in-process collection)")
	serve         = flag.Bool("serve", false, "run the endless rolling-window collection loop (SIGHUP reloads -serve-config, SIGINT/SIGTERM stop cleanly)")
	serveWindows  = flag.Int("serve-windows", 0, "with -serve: stop after this many windows (0 = run until signalled)")
	serveConfig   = flag.String("serve-config", "", "with -serve: JSON file re-read on SIGHUP (window_sec, samples, matrix, taggers, mem_ceiling_mb, sketch)")
	memCeilingMB  = flag.Int64("mem-ceiling-mb", 0, "stamp this memory ceiling (MiB) into the run manifest; cmd/manifestcheck asserts the fleet heap peak stayed under it (0 = no ceiling)")
	saveDS        = flag.String("save", "", "with -fleet: archive the Fbflow dataset to this file")
	loadDS        = flag.String("load", "", "print the summary of a previously archived Fbflow dataset")
	faults        = flag.String("faults", "", "run the degraded-mode fault experiment for a scenario ("+strings.Join(netsim.FaultScenarios(), "|")+")")
	telem         = flag.Bool("telemetry", false, "run the in-fabric telemetry experiment and print its report")
	traceSample   = flag.Float64("trace-sample", 0.1, "in-band telemetry flow sampling fraction (0 disables)")
	queueInterval = flag.Int("queue-interval", 200, "queue occupancy sampling interval, microseconds")
	pathsOut      = flag.String("paths-out", "", "with -telemetry: write retained path records (JSONL, readable by traceview -paths) to this file")
	cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")

	cmd = cli.Register(flag.CommandLine, "dcsim", core.QuickConfig(), "")
)

func main() {
	flag.Parse()
	cfg := cmd.Config()
	cfg.MemCeilingBytes = *memCeilingMB << 20
	cfg.FaultScenario = *faults
	cfg.TraceSample = *traceSample
	cfg.QueueInterval = netsim.Time(*queueInterval) * netsim.Microsecond
	role, ok := roleNames[*mirrorRole]
	switch {
	case *mirrorRole != "" && !ok:
		cmd.Usage("unknown role", "role", *mirrorRole)
	case *telem && cfg.TraceSample <= 0:
		cmd.Usage("-telemetry needs a positive -trace-sample")
	case *pathsOut != "" && !*telem:
		cmd.Usage("-paths-out needs -telemetry")
	}
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		cmd.Usage("starting profiler", "err", err)
	}
	defer stop()
	cmd.Run(cfg, func(sys *core.System) {
		did := false
		if *serve {
			cmd.Must(runServe(sys, cmd.Log, *serveWindows, *serveConfig), "serve loop failed")
			did = true
		}
		if *faults != "" {
			fmt.Print(sys.Degraded().Render())
			did = true
		}
		if *telem {
			fmt.Print(sys.Telemetry().Render())
			if *pathsOut != "" {
				cmd.WritePaths(sys, *pathsOut)
			}
			did = true
		}
		if *mirrorRole != "" {
			writeMirror(sys, role)
			did = true
		}
		if *fleet {
			if *distributed > 0 {
				cmd.Distribute(sys, *distributed, "", 0)
			}
			fmt.Print(sys.Table3().Render())
			fmt.Println()
			fmt.Print(sys.Section41().Render())
			if *saveDS != "" {
				cmd.WriteFile(*saveDS, sys.FleetDataset().Save)
				cmd.Log.Info("archived Fbflow dataset", "path", *saveDS)
			}
			did = true
		}
		if *loadDS != "" {
			f, err := os.Open(*loadDS)
			cmd.Must(err, "opening dataset archive")
			ds, err := fbflow.Load(f)
			f.Close()
			cmd.Must(err, "loading dataset")
			fmt.Printf("archived dataset: %s total bytes, %d minutes\n",
				renderSI(ds.TotalBytes()), len(ds.PerMinute()))
			for _, l := range topology.Localities {
				fmt.Printf("  %-17s %5.1f%%\n", l, 100*ds.LocalityShareAll()[l])
			}
			did = true
		}
		if !did {
			flag.Usage()
			os.Exit(2)
		}
	})
}

// writeMirror writes the -seconds port-mirror trace of role's monitored
// host to -out, and to -pcap when set.
func writeMirror(sys *core.System, role topology.Role) {
	f, err := os.Create(*out)
	cmd.Must(err, "creating trace file")
	w, err := mirror.NewWriter(f)
	cmd.Must(err, "opening trace writer")
	sink := workload.Fanout{w}
	var pw *mirror.PcapWriter
	var pf *os.File
	if *pcapOut != "" {
		pf, err = os.Create(*pcapOut)
		cmd.Must(err, "creating pcap file")
		pw, err = mirror.NewPcapWriter(pf)
		cmd.Must(err, "opening pcap writer")
		sink = append(sink, pw)
	}
	host := sys.Monitored(role)
	sp := sys.Cfg.Obs.StartSpan(fmt.Sprintf("mirror:%s:%ds", *mirrorRole, *seconds))
	services.NewTrace(sys.Pick, host, sys.Cfg.Seed, sys.Cfg.Params, sink).Run(netsim.Time(*seconds) * netsim.Second)
	sp.End()
	cmd.Must(w.Close(), "writing trace")
	cmd.Must(f.Close(), "closing trace file")
	if pw != nil {
		cmd.Must(pw.Close(), "writing pcap")
		cmd.Must(pf.Close(), "closing pcap file")
		cmd.Log.Info("wrote pcap export", "path", *pcapOut)
	}
	cmd.Log.Info("wrote mirror trace", "headers", w.Count(), "role", role.String(),
		"host", int(host), "path", *out)
}

// renderSI formats bytes with an SI suffix.
func renderSI(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}
