package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/topology"
)

// runDistributed runs an aggregator plus in-process agents (one
// goroutine per agent incarnation, each with its own System, exactly
// like separate processes would) over a unix socket, and returns the
// injected-digest bytes and the coverage gaps.
func runDistributed(t *testing.T, cfg Config, agents int, plan *AgentCrashPlan) ([]byte, []CoverageGap) {
	t.Helper()
	sys := MustNewSystem(cfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}

	agentErrs := make(chan error, agents)
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for inc := uint32(0); ; inc++ {
				asys := MustNewSystem(cfg) // a fresh System per incarnation, as a real process restart would build
				conn, err := DialFleetAgent("unix", addr, 5*time.Second)
				if err != nil {
					agentErrs <- err
					return
				}
				crashAfter := int64(-1)
				if plan != nil && plan.Agent == a && inc == 0 {
					crashAfter = plan.AfterTask
				}
				err = asys.RunFleetAgent(a, agents, inc, conn, crashAfter)
				conn.Close()
				if errors.Is(err, ErrPlannedCrash) {
					continue // restart as the next incarnation
				}
				if err != nil {
					agentErrs <- fmt.Errorf("agent %d: %w", a, err)
				}
				return
			}
		}(a)
	}

	ds, gaps, err := sys.ServeFleetAggregator(ln, agents, 10*time.Second)
	ln.Close()
	wg.Wait()
	close(agentErrs)
	for e := range agentErrs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sys.InjectFleetDataset(ds, gaps) {
		t.Fatal("fleet dataset already memoized before injection")
	}
	return digestJSON(t, sys), gaps
}

func digestJSON(t *testing.T, sys *System) []byte {
	t.Helper()
	b, err := sys.FleetDigest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fleetReferenceSkipping is the sequential oracle for gap runs: the
// single-process collection with the given grid cells skipped. It
// computes cells through the shared cell helper but merges them in a
// plain loop, never through the merge frontier, so it stays an
// independent check of the frontier's gap handling. The distributed
// dataset of a crashed run must equal it bit for bit; instrumented like
// the distributed path — one obs shard observed and folded per kept
// cell, checkpoints appended and skipped cells recorded as holes — it is
// also the counter and ledger reference for federation under gaps.
func (s *System) fleetReferenceSkipping(skip map[int]bool) *fbflow.Dataset {
	grid := s.fleetGrid()
	scratch := s.newCellScratch(fbflow.NewTagger(s.Topo), 1)
	c := s.newFleetCell()
	aud := s.Cfg.Audit
	ds := fbflow.NewDataset()
	for i := 0; i < grid.spw*s.Cfg.FleetWindows; i++ {
		t := grid.task(i)
		if skip[i] {
			if s.Cfg.FleetMatrix {
				aud.Hole(audit.StageMatrixSynth, t.window, t.shard)
			}
			aud.Hole(audit.StageFleetCollect, t.window, t.shard)
			continue
		}
		c.p.Reset()
		a := s.computeCell(&scratch[0], t, c.p, c.sh)
		if s.Cfg.FleetMatrix {
			aud.Append(a.synth)
		}
		aud.Append(a.fleet)
		c.sh.Fold()
		ds.MergePartial(c.p)
	}
	return ds
}

// TestDistributedMatchesSingleProcess is the determinism contract: the
// aggregated digest is byte-identical to the single-process run at 1,
// 2, 4, and 8 agents (8 agents on the tiny preset exercises empty
// shard ranges: only 4 shards exist per window).
func TestDistributedMatchesSingleProcess(t *testing.T) {
	cfg := QuickConfig()
	want := digestJSON(t, MustNewSystem(cfg))
	for _, agents := range []int{1, 2, 4, 8} {
		got, gaps := runDistributed(t, cfg, agents, nil)
		if len(gaps) != 0 {
			t.Fatalf("%d agents: clean run reported %d gaps", agents, len(gaps))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d agents: digest differs from single-process run\n--- distributed ---\n%s\n--- single ---\n%s", agents, got, want)
		}
	}
}

// TestDistributedSketchMode runs the same contract with cardinality
// sketches riding the wire.
func TestDistributedSketchMode(t *testing.T) {
	cfg := QuickConfig()
	cfg.SketchMode = true
	want := digestJSON(t, MustNewSystem(cfg))
	got, _ := runDistributed(t, cfg, 2, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("sketch-mode digest differs from single-process run\n--- distributed ---\n%s\n--- single ---\n%s", got, want)
	}
}

// TestDistributedMatrixMode runs the contract over matrix-mode
// collection, whose shards partition racks instead of hosts.
func TestDistributedMatrixMode(t *testing.T) {
	cfg := QuickConfig()
	cfg.FleetMatrix = true
	want := digestJSON(t, MustNewSystem(cfg))
	got, _ := runDistributed(t, cfg, 2, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("matrix-mode digest differs from single-process run\n--- distributed ---\n%s\n--- single ---\n%s", got, want)
	}
}

// crashConfig is sized so agents own multi-shard ranges: the tiny
// preset has only 4 shards per window, so a mid-window crash needs the
// small preset's 14.
func crashConfig() Config {
	cfg := QuickConfig()
	cfg.Scale = topology.ScaleSmall
	cfg.FleetWindows = 4
	cfg.FleetWindowSec = 5
	return cfg
}

// TestDistributedAgentCrashRestart kills one agent mid-window at its
// seed-derived crash point, restarts it, and checks the three promised
// properties: the digest records the gap, the aggregate equals the
// sequential oracle that skips exactly the gapped cells, and the whole
// thing — gap block included — is deterministic across runs.
func TestDistributedAgentCrashRestart(t *testing.T) {
	cfg := crashConfig()
	sys := MustNewSystem(cfg)
	agents := 4
	plan := sys.PlanAgentCrash(agents)
	span := sys.FleetShardMap(agents)[plan.Agent].Span()
	if span < 2 {
		t.Fatalf("crash plan victim owns %d shards; config cannot force a mid-window gap", span)
	}
	if (plan.AfterTask+1)%int64(span) == 0 {
		t.Fatalf("crash plan dies at a window boundary (task %d, span %d)", plan.AfterTask, span)
	}

	got, gaps := runDistributed(t, cfg, agents, &plan)
	if len(gaps) == 0 {
		t.Fatal("mid-window crash produced no coverage gap")
	}
	for _, g := range gaps {
		if g.Agent != plan.Agent {
			t.Fatalf("gap attributed to agent %d, crash was agent %d", g.Agent, plan.Agent)
		}
	}

	// The aggregate must equal the sequential oracle that skips exactly
	// the gapped cells — proving the restart resumed the right stream
	// and nothing was double-counted.
	spw := sys.fleetGrid().spw
	skip := map[int]bool{}
	for _, g := range gaps {
		for sh := g.ShardLo; sh < g.ShardHi; sh++ {
			skip[g.Window*spw+sh] = true
		}
	}
	ref := MustNewSystem(cfg)
	if !ref.InjectFleetDataset(ref.fleetReferenceSkipping(skip), gaps) {
		t.Fatal("reference system already memoized")
	}
	if want := digestJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("crashed-run digest differs from skip-oracle\n--- distributed ---\n%s\n--- oracle ---\n%s", got, want)
	}

	// Gap accounting itself is deterministic: a second full run crashes
	// and gaps identically.
	again, _ := runDistributed(t, cfg, agents, &plan)
	if !bytes.Equal(got, again) {
		t.Fatal("two crashed runs produced different digests")
	}
}

// TestFleetShardMapCoversGrid pins the shard map invariants the two
// sides both derive independently: contiguous, complete, ordered.
func TestFleetShardMapCoversGrid(t *testing.T) {
	sys := MustNewSystem(QuickConfig())
	spw := sys.fleetGrid().spw
	for agents := 1; agents <= 2*spw; agents++ {
		m := sys.FleetShardMap(agents)
		prev := 0
		for a, rg := range m {
			if rg.Lo != prev || rg.Hi < rg.Lo {
				t.Fatalf("agents=%d: range %d is [%d,%d) after %d", agents, a, rg.Lo, rg.Hi, prev)
			}
			prev = rg.Hi
		}
		if prev != spw {
			t.Fatalf("agents=%d: map covers %d of %d shards", agents, prev, spw)
		}
	}
}

// TestAggregatorRejectsConfigMismatch: an agent built from a different
// seed must fail the handshake, not silently merge a foreign stream.
func TestAggregatorRejectsConfigMismatch(t *testing.T) {
	cfg := QuickConfig()
	sys := MustNewSystem(cfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = cfg.Seed + 1
	go func() {
		conn, err := DialFleetAgent("unix", addr, 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		asys := MustNewSystem(bad)
		_ = asys.RunFleetAgent(0, 1, 0, conn, -1)
	}()
	_, _, err = sys.ServeFleetAggregator(ln, 1, 10*time.Second)
	ln.Close()
	if err == nil {
		t.Fatal("aggregator accepted a mismatched configuration")
	}
}

// TestAggregatorDropsMalformedSections feeds the aggregator one agent
// stream whose cell 1 carries an undecodable obs section, cell 2 an
// audit section with a bogus stage, and whose FIN carries an
// undecodable report. Sections are best-effort: each is dropped and
// counted, the run completes with the single-process digest, and only
// cell 2's checkpoint becomes a ledger hole.
func TestAggregatorDropsMalformedSections(t *testing.T) {
	cfg := QuickConfig()
	want := digestJSON(t, MustNewSystem(cfg))
	wantLedger := auditLedger(t, cfg)

	acfg := cfg
	acfg.Obs = obs.NewRegistry()
	acfg.Audit = audit.New()
	sys := MustNewSystem(acfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- func() error {
			conn, err := DialFleetAgent("unix", addr, 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			gcfg := cfg
			gcfg.Audit = audit.New()
			agent := MustNewSystem(gcfg)
			grid := agent.fleetGrid()
			cells := grid.spw * cfg.FleetWindows
			w, r := fbwire.NewWriter(conn), fbwire.NewReader(conn)
			if err := w.WriteHello(fbwire.Hello{Version: fbwire.Version, ShardHi: uint32(grid.spw),
				Windows: uint32(cfg.FleetWindows), Check: agent.fleetConfigCheck()}); err != nil {
				return err
			}
			if _, err := r.Next(); err != nil {
				return err
			}
			scratch := agent.newCellScratch(fbflow.NewTagger(agent.Topo), 1)
			c := agent.newFleetCell()
			for i := 0; i < cells; i++ {
				c.p.Reset()
				a := agent.computeCell(&scratch[0], grid.task(i), c.p, nil)
				var obsSec []byte
				cps := a.wire(nil)
				switch i {
				case 1:
					obsSec = []byte{0xde, 0xad, 0xbe, 0xef}
				case 2:
					cps[0].Stage = 0x7f
				}
				t := grid.task(i)
				if err := w.WriteCell(fbwire.PartialHeader{Seq: uint64(i), Window: uint32(t.window), Shard: uint32(t.shard)}, c.p, obsSec, cps); err != nil {
					return err
				}
			}
			return w.WriteFin(uint64(cells), []byte{1})
		}()
	}()
	ds, gaps, err := sys.ServeFleetAggregator(ln, 1, 10*time.Second)
	ln.Close()
	if aerr := <-agentErr; aerr != nil {
		t.Fatal(aerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sys.InjectFleetDataset(ds, gaps) {
		t.Fatal("fleet dataset already memoized before injection")
	}
	if got := digestJSON(t, sys); !bytes.Equal(got, want) {
		t.Fatal("dropped sections perturbed the dataset")
	}
	for series, n := range map[string]float64{
		obs.Series("fbdcnet_fleet_obs_drops_total", "agent", "0"):   2, // cell 1's delta and FIN's report
		obs.Series("fbdcnet_fleet_audit_drops_total", "agent", "0"): 1,
	} {
		if got := acfg.Obs.SeriesValue(series); got != n {
			t.Errorf("%s = %v, want %v", series, got, n)
		}
	}
	hole := sys.fleetGrid().task(2)
	got := acfg.Audit.Checkpoints()
	if len(got) != len(wantLedger) {
		t.Fatalf("ledger has %d checkpoints, want %d", len(got), len(wantLedger))
	}
	for i, cp := range got {
		if cp.Window == hole.window && cp.Shard == hole.shard {
			if !cp.Hole {
				t.Fatalf("cell (%d,%d) kept a checkpoint from a dropped audit section", cp.Window, cp.Shard)
			}
		} else if cp != wantLedger[i] {
			t.Fatalf("checkpoint %d = %+v, want %+v", i, cp, wantLedger[i])
		}
	}
}

// TestAggregatorRejectsMalformedDataset: unlike the best-effort
// sections, a CELL frame whose dataset section does not decode fails
// the run instead of merging a guess.
func TestAggregatorRejectsMalformedDataset(t *testing.T) {
	cfg := QuickConfig()
	sys := MustNewSystem(cfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := DialFleetAgent("unix", addr, 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		spw := sys.fleetGrid().spw
		w, r := fbwire.NewWriter(conn), fbwire.NewReader(conn)
		if w.WriteHello(fbwire.Hello{Version: fbwire.Version, ShardHi: uint32(spw),
			Windows: uint32(cfg.FleetWindows), Check: sys.fleetConfigCheck()}) != nil {
			return
		}
		if _, err := r.Next(); err != nil {
			return
		}
		var frame bytes.Buffer
		if fbwire.NewWriter(&frame).WritePartial(fbwire.PartialHeader{}, fbflow.NewPartial()) != nil {
			return
		}
		b := frame.Bytes()
		b[len(b)-1] ^= 0xff // corrupt the tail of the dataset section
		conn.Write(b)
		r.Next() // hold the connection until the aggregator gives up
	}()
	_, _, err = sys.ServeFleetAggregator(ln, 1, 10*time.Second)
	ln.Close()
	if err == nil || !strings.Contains(err.Error(), "agent 0 frame") {
		t.Fatalf("aggregator accepted a cell whose dataset section does not decode (err %v)", err)
	}
}
