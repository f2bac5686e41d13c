package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/obs/audit"
)

// TestMain makes the test binary its own fleet agent: distributed runs
// re-execute os.Executable with "-agent ...", which lands here and runs
// the agent mode exactly as dcsim, experiments and fbflowd do.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-agent" {
		c, err := parse(os.Args[1:], "")
		if err != nil {
			os.Exit(2)
		}
		c.Run(c.Config(), nil)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// parse registers the shared flags over QuickConfig, the base of dcsim
// and fbflowd, and parses args.
func parse(args []string, manifest string) (*Command, error) {
	fs := flag.NewFlagSet("cli-test", flag.ContinueOnError)
	c := Register(fs, "cli-test", core.QuickConfig(), manifest)
	return c, fs.Parse(args)
}

func TestParsePerturb(t *testing.T) {
	for _, tc := range []struct {
		spec          string
		window, shard int
		ok            bool
	}{
		{"3:5", 3, 5, true},
		{"0:0", 0, 0, true},
		{"12:400", 12, 400, true},
		{"", 0, 0, false},
		{"3", 0, 0, false},
		{"3:", 0, 0, false},
		{":5", 0, 0, false},
		{"-1:5", 0, 0, false},
		{"3:-5", 0, 0, false},
		{"a:5", 0, 0, false},
		{"3:5:7", 0, 0, false},
		{" 3:5", 0, 0, false},
	} {
		w, s, err := parsePerturb(tc.spec)
		if (err == nil) != tc.ok || w != tc.window || s != tc.shard {
			t.Errorf("parsePerturb(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.spec, w, s, err, tc.window, tc.shard, tc.ok)
		}
	}
}

// TestAgentArgsRoundTrip parses an aggregator's flags, builds one
// agent's argument list and parses it back in agent mode: the fleet
// configuration must survive, -audit must propagate and -audit-perturb
// must not (the planted divergence belongs to the aggregator's ledger).
func TestAgentArgsRoundTrip(t *testing.T) {
	for _, args := range [][]string{
		{"-quiet"},
		{"-quiet", "-scale", "small", "-seed", "7", "-windows", "3", "-matrix", "-sketch",
			"-audit", "-audit-perturb", "1:2", "-agent-faults", "-metrics-addr", "127.0.0.1:9100",
			"-manifest", "agg.json", "-trace-out", "agg-trace.json", "-parallel", "3"},
	} {
		agg, err := parse(args, "run_manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		want := agg.Config()
		agentArgs := agg.agentArgs(want, 5, "unix:/tmp/agg.sock", 3, 1)
		// The agent command's own default manifest must not leak in.
		agent, err := parse(agentArgs, "run_manifest.json")
		if err != nil {
			t.Fatalf("agent args %q: %v", agentArgs, err)
		}
		got := agent.Config()
		if got.Scale != want.Scale || got.Seed != want.Seed || got.FleetWindows != want.FleetWindows ||
			got.FleetMatrix != want.FleetMatrix || got.SketchMode != want.SketchMode {
			t.Errorf("%q: agent config %+v, aggregator %+v", agentArgs, got, want)
		}
		if !agent.agent || agent.id != 3 || agent.Agents != 5 || agent.incarnation != 1 || agent.connect != "unix:/tmp/agg.sock" {
			t.Errorf("%q: agent identity not carried", agentArgs)
		}
		if agent.audit != agg.audit || agent.auditPerturb != "" || agent.agentFaults != agg.agentFaults {
			t.Errorf("%q: audit %v perturb %q faults %v", agentArgs, agent.audit, agent.auditPerturb, agent.agentFaults)
		}
		if agent.manifest != "" || agent.traceOut != "" || !agent.quiet {
			t.Errorf("%q: agent writes manifest %q / trace %q, quiet %v", agentArgs, agent.manifest, agent.traceOut, agent.quiet)
		}
		if wantAddr := core.AgentMetricsAddr(agg.metricsAddr, 3); agent.metricsAddr != wantAddr {
			t.Errorf("%q: agent metrics %q, want %q", agentArgs, agent.metricsAddr, wantAddr)
		}
	}
}

// runFleet is one command run over the shared wiring: args parsed, the
// system built by Run, the fleet dataset collected by distribute (nil =
// in process), and the dcsim -fleet view and fbflowd digest returned.
func runFleet(t *testing.T, args []string, distribute func(c *Command, sys *core.System)) (view, digest []byte, ledger []audit.SectionCheckpoint) {
	t.Helper()
	c, err := parse(append([]string{"-quiet"}, args...), "")
	if err != nil {
		t.Fatal(err)
	}
	c.Run(c.Config(), func(sys *core.System) {
		if distribute != nil {
			distribute(c, sys)
		}
		view = []byte(sys.Table3().Render() + "\n" + sys.Section41().Render())
		digest, err = sys.FleetDigest().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if sec := sys.Cfg.Audit.Section(); sec != nil {
			ledger = sec.Checkpoints
		}
	})
	return view, digest, ledger
}

// TestDistributedReexec is the command-level byte-identity contract:
// agents re-executed through the agent flags (this test binary, via
// TestMain) must reproduce the in-process fleet view and digest. The
// dcsim -distributed path aggregates on a private unix socket; the
// fbflowd -spawn -listen path on an explicit one, with the audit
// ledger on; the -agent-faults arm must crash, restart and gap.
func TestDistributedReexec(t *testing.T) {
	view, digest, _ := runFleet(t, nil, nil)
	gotView, gotDigest, _ := runFleet(t, nil, func(c *Command, sys *core.System) {
		c.Distribute(sys, 2, "", 0)
	})
	if !bytes.Equal(gotView, view) || !bytes.Equal(gotDigest, digest) {
		t.Errorf("dcsim -fleet -distributed 2 differs from in-process:\n%s\nwant\n%s", gotView, view)
	}

	_, _, ledger := runFleet(t, []string{"-audit"}, nil)
	listen := "unix:" + filepath.Join(t.TempDir(), "agg.sock")
	_, gotDigest, gotLedger := runFleet(t, []string{"-audit", "-agents", "2"}, func(c *Command, sys *core.System) {
		c.Distribute(sys, c.Agents, listen, time.Second)
	})
	if !bytes.Equal(gotDigest, digest) {
		t.Errorf("fbflowd -agents 2 -spawn digest differs from -single:\n%s\nwant\n%s", gotDigest, digest)
	}
	if len(ledger) == 0 || !slices.Equal(gotLedger, ledger) {
		t.Errorf("distributed audit ledger (%d checkpoints) differs from in-process (%d)", len(gotLedger), len(ledger))
	}

	var gaps []core.CoverageGap
	_, gotDigest, _ = runFleet(t, []string{"-agent-faults"}, func(c *Command, sys *core.System) {
		c.Distribute(sys, 2, "", 0)
		gaps = sys.FleetCoverageGaps()
	})
	if len(gaps) == 0 || !bytes.Contains(gotDigest, []byte(`"gap_cells"`)) {
		t.Errorf("-agent-faults run recorded no coverage gap: %v", gaps)
	}
	if bytes.Equal(gotDigest, digest) {
		t.Error("-agent-faults digest equals the clean digest")
	}
}
