package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/rng"
)

// Agent process lifecycle for distributed fleet collection: the seeded
// crash plan, dialing, spawning and restarting agent processes, and the
// per-agent address tables. The protocol itself — agent loop and
// aggregator — is in distributed.go.

// AgentCrashPlan schedules one deterministic agent death: the victim
// exits (status AgentCrashExitCode) right after streaming its
// AfterTask-th task, and the spawner restarts it with the next
// incarnation.
type AgentCrashPlan struct {
	Agent     int
	AfterTask int64
}

// PlanAgentCrash derives the crash schedule from the seed, like every
// other fault in the repo: the victim and its death point are a pure
// function of (Seed, agents), so two runs of the same configuration
// crash — and gap — identically. The death lands mid-window whenever
// the victim owns more than one shard, which is what forces a real
// coverage gap rather than a clean boundary handoff.
func (s *System) PlanAgentCrash(agents int) AgentCrashPlan {
	m := s.FleetShardMap(agents)
	var owners []int
	for a, rg := range m {
		if rg.Span() > 0 {
			owners = append(owners, a)
		}
	}
	r := rng.NewKeyed(s.Cfg.Seed^0xc4a54, uint64(agents))
	victim := owners[r.Intn(len(owners))]
	span := m[victim].Span()
	off := 0
	if span > 1 {
		off = r.Intn(span - 1) // not the last shard of the window: forces a gap
	}
	window := s.Cfg.FleetWindows / 2
	return AgentCrashPlan{Agent: victim, AfterTask: int64(window*span + off)}
}

// DialFleetAgent dials the aggregator with retry until timeout — agents
// race the aggregator's listener at process startup.
func DialFleetAgent(network, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("core: dialing aggregator %s %s: %w", network, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// AgentSpawner launches one agent process incarnation. The command must
// run an agent that dials the aggregator and exits zero on FIN,
// AgentCrashExitCode at a planned crash, and anything else on failure.
type AgentSpawner func(agentID, incarnation int) (*exec.Cmd, error)

// RunDistributedFleet is the local multi-process driver: it listens on
// (network, addr), spawns one agent process per shard-map entry through
// spawn — restarting planned-crash exits with a bumped incarnation —
// and aggregates their streams. It returns the merged dataset and the
// coverage gaps (empty for a clean run).
func (s *System) RunDistributedFleet(network, addr string, agents int, spawn AgentSpawner, reconnectWait time.Duration) (*fbflow.Dataset, []CoverageGap, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, nil, err
	}
	spawnErrs := make(chan error, agents)
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for inc := 0; ; inc++ {
				cmd, err := spawn(a, inc)
				if err != nil {
					spawnErrs <- fmt.Errorf("core: spawning agent %d: %w", a, err)
					return
				}
				err = cmd.Run()
				if err == nil {
					return
				}
				var ee *exec.ExitError
				if errors.As(err, &ee) && ee.ExitCode() == AgentCrashExitCode {
					continue // planned crash: restart as the next incarnation
				}
				spawnErrs <- fmt.Errorf("core: agent %d process: %w", a, err)
				return
			}
		}(a)
	}
	ds, gaps, aggErr := s.ServeFleetAggregator(ln, agents, reconnectWait)
	ln.Close()
	wg.Wait()
	close(spawnErrs)
	for e := range spawnErrs {
		if aggErr == nil {
			aggErr = e
		}
	}
	if aggErr != nil {
		return nil, nil, aggErr
	}
	return ds, gaps, nil
}

// AgentMetricsAddr derives agent a's live-metrics listen address from
// the aggregator's -metrics-addr: the same host with the port offset by
// 1+a, so one flag fans out to N processes without collisions. Port 0
// (kernel-assigned) passes through as 0 for every agent; an unparsable
// base yields "" (metrics endpoint disabled for the agents).
func AgentMetricsAddr(base string, a int) string {
	if base == "" {
		return ""
	}
	host, port, err := net.SplitHostPort(base)
	if err != nil {
		return ""
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 {
		return ""
	}
	if p == 0 {
		return net.JoinHostPort(host, "0")
	}
	return net.JoinHostPort(host, strconv.Itoa(p+1+a))
}

// AgentMetricsAddrs resolves the full per-agent metrics address table
// up front — base port + 1 + index for each of the `agents` processes —
// so spawn mode can detect port collisions and overflows before any
// child hits an opaque bind error. avoid lists addresses already taken
// in this run (the aggregator's own metrics endpoint, the dataset
// listener when it is TCP): a derived address that lands on one of them
// is reported with both claimants named. Port 0 (kernel-assigned) and
// an empty base disable the check and derive like AgentMetricsAddr.
func AgentMetricsAddrs(base string, agents int, avoid ...string) ([]string, error) {
	addrs := make([]string, agents)
	if base == "" {
		return addrs, nil
	}
	host, port, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("core: agent metrics base %q: %w", base, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 {
		return nil, fmt.Errorf("core: agent metrics base %q: port %q is not a port number", base, port)
	}
	if p == 0 {
		for a := range addrs {
			addrs[a] = net.JoinHostPort(host, "0")
		}
		return addrs, nil
	}
	taken := make(map[string]string, len(avoid)+agents)
	for _, av := range avoid {
		if av != "" {
			taken[av] = "reserved by the run"
		}
	}
	for a := range addrs {
		derived := p + 1 + a
		if derived > 65535 {
			return nil, fmt.Errorf("core: agent %d metrics port %d overflows 65535 (base %q + 1 + %d); pick a lower base port", a, derived, base, a)
		}
		addr := net.JoinHostPort(host, strconv.Itoa(derived))
		if who, clash := taken[addr]; clash {
			return nil, fmt.Errorf("core: agent %d metrics address %s collides with %s; move -metrics-addr so base+1..base+%d stay free", a, addr, who, agents)
		}
		taken[addr] = fmt.Sprintf("agent %d", a)
		addrs[a] = addr
	}
	return addrs, nil
}

// ParseListenSpec splits an address spec into (network, address):
// "unix:/path" and "tcp:host:port" are explicit; a bare path is a unix
// socket, anything else with a colon is TCP.
func ParseListenSpec(spec string) (network, addr string) {
	switch {
	case strings.HasPrefix(spec, "unix:"):
		return "unix", spec[len("unix:"):]
	case strings.HasPrefix(spec, "tcp:"):
		return "tcp", spec[len("tcp:"):]
	case strings.Contains(spec, ":"):
		return "tcp", spec
	default:
		return "unix", spec
	}
}

// SelfExecSpawner returns an AgentSpawner that re-runs the current
// executable with args(agentID, incarnation). Agent stderr passes
// through for diagnostics; stdout is discarded so agents cannot pollute
// the aggregator's dataset output.
func SelfExecSpawner(args func(agentID, incarnation int) []string) (AgentSpawner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("core: resolving own executable: %w", err)
	}
	return func(a, inc int) (*exec.Cmd, error) {
		cmd := exec.Command(exe, args(a, inc)...)
		cmd.Stderr = os.Stderr
		return cmd, nil
	}, nil
}

// CollectFleetDistributed runs this System's fleet collection across
// `agents` self-exec agent processes over a unix socket in a private
// temp directory, injects the aggregate as the System's fleet dataset,
// and returns the coverage gaps (empty for a clean run). args builds
// the child process's argument list; it receives the socket path.
func (s *System) CollectFleetDistributed(agents int, args func(addr string, agentID, incarnation int) []string) ([]CoverageGap, error) {
	dir, err := os.MkdirTemp("", "fbflow-agg-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "agg.sock")
	spawn, err := SelfExecSpawner(func(a, inc int) []string { return args(addr, a, inc) })
	if err != nil {
		return nil, err
	}
	ds, gaps, err := s.RunDistributedFleet("unix", addr, agents, spawn, 0)
	if err != nil {
		return nil, err
	}
	if !s.InjectFleetDataset(ds, gaps) {
		return nil, fmt.Errorf("core: fleet dataset already collected before distributed run")
	}
	return gaps, nil
}
