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
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
)

var (
	listen        = flag.String("listen", "", "aggregator address (unix:/path, tcp:host:port, or bare socket path); empty with -spawn uses a private unix socket")
	spawnLocal    = flag.Bool("spawn", false, "spawn the agents locally as child processes of this aggregator")
	single        = flag.Bool("single", false, "run the collection single-process and print the same digest (the byte-identity reference)")
	reconnectWait = flag.Int("reconnect-wait-sec", 10, "seconds the aggregator waits for a dead agent to reconnect before gapping its remaining cells")

	cmd = cli.Register(flag.CommandLine, "fbflowd", core.QuickConfig(), "")
)

func main() {
	flag.Parse()
	cmd.Run(cmd.Config(), func(sys *core.System) {
		wait := time.Duration(*reconnectWait) * time.Second
		switch {
		case *single:
			// FleetDigest collects the dataset in process.
		case *spawnLocal:
			// Spawned agents: a private unix socket by default, or an
			// explicit -listen address (useful for exercising the tcp
			// path locally).
			cmd.Distribute(sys, cmd.Agents, *listen, wait)
		default:
			serveExternal(sys, wait)
		}
		b, err := sys.FleetDigest().JSON()
		cmd.Must(err, "rendering digest")
		os.Stdout.Write(b)
	})
}

// serveExternal listens on -listen and aggregates the -agents external
// agents that dial in (fbflowd -agent -connect ...).
func serveExternal(sys *core.System, wait time.Duration) {
	network, addr := core.ParseListenSpec(*listen)
	if *listen == "" {
		network, addr = "unix", filepath.Join(os.TempDir(), fmt.Sprintf("fbflowd-%d.sock", os.Getpid()))
		defer os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	cmd.Must(err, "listening")
	cmd.Log.Info("aggregator listening", "network", network, "addr", addr, "agents", cmd.Agents)
	ds, gaps, err := sys.ServeFleetAggregator(ln, cmd.Agents, wait)
	ln.Close()
	cmd.Inject(sys, ds, gaps, err)
}
