package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
)

// Distributed fleet collection: the production shape of the paper's
// Fbflow pipeline. N agent processes each own a contiguous range of the
// (window × shard) task grid's shard axis, run sampling and partial
// accumulation locally, and stream one CELL frame per cell to one
// aggregator that merges them at the global task-order frontier.
//
// The determinism contract is the same as the in-process engine's:
// every (window, shard) cell draws from an rng stream keyed by its own
// coordinates, and cells merge through the same frontier in global task
// order — window-major, shard within window — so the aggregated dataset
// is bit-identical to the single-process run at any agent count. Agents
// overlap comms with compute by double-buffering cells (window W+1
// accumulates while W encodes and sends), and the aggregator parks
// cells as they arrive rather than barriering per window, exactly like
// collectFleet parks out-of-order workers.

// AgentCrashExitCode is the exit status of an agent that dies at its
// planned crash point. The spawner restarts exactly this status with an
// incremented incarnation; anything else is a real failure.
const AgentCrashExitCode = 3

// ErrPlannedCrash is returned by RunFleetAgent when the agent reaches
// its planned crash task. The hosting process should exit with
// AgentCrashExitCode.
var ErrPlannedCrash = errors.New("core: fleet agent reached its planned crash point")

// ShardRange is one agent's contiguous range [Lo, Hi) of per-window
// shard indices.
type ShardRange struct {
	Lo, Hi int
}

// Span returns the number of shards the range owns.
func (r ShardRange) Span() int { return r.Hi - r.Lo }

// FleetShardMap splits the shard axis into one contiguous range per
// agent. Trailing agents may own empty ranges when there are more
// agents than shards; they still handshake and FIN so the aggregator's
// accounting stays uniform.
func (s *System) FleetShardMap(agents int) []ShardRange {
	spw := s.fleetGrid().spw
	m := make([]ShardRange, agents)
	for a := 0; a < agents; a++ {
		m[a] = ShardRange{Lo: a * spw / agents, Hi: (a + 1) * spw / agents}
	}
	return m
}

// fleetConfigCheck fingerprints every configuration field that shapes
// the task grid or its rng streams. Agent and aggregator exchange it in
// HELLO: a mismatch means the processes would silently compute
// different datasets, so the handshake fails instead.
func (s *System) fleetConfigCheck() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(s.Cfg.Seed)
	mix(uint64(s.Cfg.Scale))
	mix(uint64(s.Cfg.FleetWindows))
	mix(math.Float64bits(s.Cfg.FleetWindowSec))
	mix(uint64(s.Cfg.FleetSamples))
	mix(b2u(s.Cfg.FleetMatrix))
	mix(b2u(s.Cfg.SketchMode))
	mix(uint64(s.fleetGrid().spw))
	return h
}

// agentTask maps an agent-local task index to its grid cell. Agent
// streams are window-major within the agent's shard range, so resuming
// at a window boundary is resuming at a multiple of the span.
func agentTask(rg ShardRange, t uint64) (window, shard int) {
	span := uint64(rg.Span())
	return int(t / span), rg.Lo + int(t%span)
}

// RunFleetAgent runs one agent over an established aggregator
// connection: handshake, then compute-and-stream every cell of this
// agent's shard range from the aggregator's resume point. crashAfter,
// when >= 0, is the agent-local task index after whose frame the agent
// abandons the run with ErrPlannedCrash — the deterministic stand-in
// for an agent host dying mid-window.
//
// Compute and comms overlap: a sender goroutine owns the socket while
// the main loop accumulates the next cell into a second (and third)
// pooled envelope, so the steady state keeps both the CPU and the wire
// busy without any per-window barrier.
func (s *System) RunFleetAgent(agentID, agents int, incarnation uint32, conn io.ReadWriter, crashAfter int64) error {
	if agentID < 0 || agentID >= agents {
		return fmt.Errorf("core: agent id %d outside [0, %d)", agentID, agents)
	}
	rg := s.FleetShardMap(agents)[agentID]
	span := rg.Span()
	expected := uint64(span * s.Cfg.FleetWindows)

	w := fbwire.NewWriter(conn)
	r := fbwire.NewReader(conn)
	if err := w.WriteHello(fbwire.Hello{
		Version:     fbwire.Version,
		AgentID:     uint32(agentID),
		Incarnation: incarnation,
		ShardLo:     uint32(rg.Lo),
		ShardHi:     uint32(rg.Hi),
		Windows:     uint32(s.Cfg.FleetWindows),
		Check:       s.fleetConfigCheck(),
	}); err != nil {
		return fmt.Errorf("core: agent %d hello: %w", agentID, err)
	}
	f, err := r.Next()
	if err != nil {
		return fmt.Errorf("core: agent %d awaiting welcome: %w", agentID, err)
	}
	if f.Type != fbwire.TypeWelcome {
		return fmt.Errorf("core: agent %d expected welcome, got frame type %#x", agentID, f.Type)
	}
	resume, err := fbwire.ParseWelcome(f.Payload)
	if err != nil {
		return err
	}
	if resume > expected {
		return fmt.Errorf("core: agent %d told to resume at task %d of %d", agentID, resume, expected)
	}

	reg := s.Cfg.Obs
	sp := reg.StartSpan(fmt.Sprintf("fleet-agent-%d", agentID))
	// The span must end before the agent report is encoded so its event
	// reaches the federated timeline; the flag keeps the deferred End (the
	// error paths) from double-counting.
	spanEnded := false
	endSpan := func() {
		if !spanEnded {
			spanEnded = true
			sp.End()
		}
	}
	defer endSpan()

	// Double buffer: the main loop computes into one envelope while the
	// sender encodes and flushes the previous one as a CELL frame. A
	// third envelope in the free pool absorbs the jitter between the two.
	grid := s.fleetGrid()
	scratch := s.newCellScratch(fbflow.NewTagger(s.Topo), 1)
	aud := s.Cfg.Audit
	bb := aud.BB()
	type job struct {
		seq uint64
		c   *fleetCell
	}
	free := make(chan *fleetCell, 3)
	for i := 0; i < cap(free); i++ {
		free <- s.newFleetCell()
	}
	jobs := make(chan job, 1)
	sendRes := make(chan error, 1)
	go func() {
		var cps [fbwire.MaxCheckpoints]fbwire.Checkpoint
		for j := range jobs {
			window, shard := agentTask(rg, j.seq)
			err := w.WriteCell(fbwire.PartialHeader{Seq: j.seq, Window: uint32(window), Shard: uint32(shard)},
				j.c.p, j.c.delta, j.c.aud.wire(cps[:0]))
			bb.Record(audit.EvFrameTx, "cell", fbwire.TypeCell, int64(j.seq))
			j.c.p.Reset()
			free <- j.c
			if err != nil {
				sendRes <- err
				return
			}
			if crashAfter >= 0 && j.seq == uint64(crashAfter) {
				sendRes <- ErrPlannedCrash
				return
			}
		}
		sendRes <- nil
	}()

	for t := resume; t < expected; t++ {
		var c *fleetCell
		select {
		case c = <-free:
		case serr := <-sendRes:
			// The sender died (socket error or planned crash): stop
			// computing and surface its verdict.
			close(jobs)
			return serr
		}
		window, shard := agentTask(rg, t)
		c.aud = s.computeCell(&scratch[0], grid.task(window*grid.spw+shard), c.p, c.sh)
		// The agent keeps a ledger of its own; the aggregator's, fed from
		// the audit sections, is the authoritative one.
		if s.Cfg.FleetMatrix {
			aud.Append(c.aud.synth)
		}
		aud.Append(c.aud.fleet)
		// Encode the cell's delta before Fold resets the shard; the fold
		// keeps the agent's own registry live for its -metrics-addr
		// endpoint (a separate process, so nothing double-counts).
		c.delta = c.sh.AppendDelta(c.delta[:0])
		c.sh.Fold()
		select {
		case jobs <- job{seq: t, c: c}:
		case serr := <-sendRes:
			return serr
		}
	}
	close(jobs)
	if err := <-sendRes; err != nil {
		return err
	}
	endSpan()
	var report []byte
	if reg.Enabled() {
		reg.SetGauge(fmt.Sprintf("fbdcnet_agent_%d_tx_bytes", agentID), float64(w.BytesWritten()))
		if aud.Enabled() {
			// Stamp the black-box depth into the federated report so the
			// per-agent manifest section shows each process's ring.
			reg.SetGauge("fbdcnet_blackbox_events", float64(bb.Total()))
		}
		report = reg.AppendReport(nil, uint32(agentID), incarnation)
	}
	if err := w.WriteFin(expected-resume, report); err != nil {
		return fmt.Errorf("core: agent %d fin: %w", agentID, err)
	}
	return nil
}

// CoverageGap is one contiguous run of task cells the aggregator never
// received — an agent died mid-window and the restart resumed at the
// next window boundary, or an agent never came back at all. Gaps are
// the distributed analogue of lost-forever bytes: accounted, not
// silently absorbed.
type CoverageGap struct {
	Agent   int `json:"agent"`
	Window  int `json:"window"`
	ShardLo int `json:"shard_lo"` // global shard ids [ShardLo, ShardHi)
	ShardHi int `json:"shard_hi"`
	Cells   int `json:"cells"`
}

// fleetAggregator is the shared state of one aggregation run. Every
// field, the frontier included, is guarded by mu.
type fleetAggregator struct {
	s      *System
	agents int
	shards []ShardRange
	spw    int

	mu        sync.Mutex
	cond      *sync.Cond
	front     *frontier
	received  []uint64 // agent-task credit, gapped cells included
	expected  []uint64
	fin       []bool
	connected []bool
	lastInc   []int64
	lastSeen  []time.Time
	gaps      []CoverageGap
	err       error

	// Federated observability. Obs and audit sections ride each CELL
	// frame and park with the cell; reports ride FIN and are per-process
	// ephemera kept for the manifest and the exported timeline. All of it
	// is best-effort: a section the aggregator cannot decode is dropped
	// and counted, never allowed to fail the dataset protocol.
	reports    []*obs.AgentReport // latest incarnation's report per agent
	obsDrops   int64
	audDrops   int64
	agentLabel []string // preformatted agent-id labels for series names
	stallCell  int      // frontier cell an open stall span is blaming, -1 if none
	stallStart time.Time
}

// ServeFleetAggregator accepts agent connections on ln and merges their
// cell streams into one dataset at the global task-order frontier.
// It returns when every agent has delivered its full shard range or has
// been gapped out after reconnectWait without a live connection. The
// returned gaps are sorted in task order, so gap accounting is as
// deterministic as the dataset itself.
func (s *System) ServeFleetAggregator(ln net.Listener, agents int, reconnectWait time.Duration) (*fbflow.Dataset, []CoverageGap, error) {
	if agents < 1 {
		return nil, nil, fmt.Errorf("core: aggregator needs at least one agent")
	}
	if reconnectWait <= 0 {
		reconnectWait = 10 * time.Second
	}
	reg := s.Cfg.Obs
	sp := reg.StartSpan("fleet-aggregate")
	defer sp.End()
	spw := s.fleetGrid().spw
	ag := &fleetAggregator{
		s:          s,
		agents:     agents,
		shards:     s.FleetShardMap(agents),
		spw:        spw,
		front:      &frontier{s: s, prog: reg.NewProgress("fleet-windows", int64(s.Cfg.FleetWindows))},
		received:   make([]uint64, agents),
		expected:   make([]uint64, agents),
		fin:        make([]bool, agents),
		connected:  make([]bool, agents),
		lastInc:    make([]int64, agents),
		lastSeen:   make([]time.Time, agents),
		reports:    make([]*obs.AgentReport, agents),
		agentLabel: make([]string, agents),
		stallCell:  -1,
	}
	ag.cond = sync.NewCond(&ag.mu)
	ds := fbflow.NewDataset()
	ag.front.reset(ds, 0, spw*s.Cfg.FleetWindows)
	now := time.Now()
	for a := 0; a < agents; a++ {
		ag.expected[a] = uint64(ag.shards[a].Span() * s.Cfg.FleetWindows)
		ag.lastInc[a] = -1
		ag.lastSeen[a] = now
		ag.agentLabel[a] = fmt.Sprint(a)
	}

	// Accept loop: runs until the listener closes. Each connection is
	// one agent incarnation.
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ag.handleConn(conn)
			}()
		}
	}()

	err := ag.wait(reconnectWait)
	ln.Close()
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(ag.gaps, func(i, j int) bool {
		a, b := ag.gaps[i], ag.gaps[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		return a.ShardLo < b.ShardLo
	})
	if reg.Enabled() {
		ag.front.prog.Set(int64(s.Cfg.FleetWindows))
		gapCells := 0
		for _, g := range ag.gaps {
			gapCells += g.Cells
		}
		reg.SetGauge("fbdcnet_fleet_gap_cells", float64(gapCells))
		reg.SetGauge("fbdcnet_fleet_obs_dropped_frames", float64(ag.obsDrops))
		reg.SetGauge("fbdcnet_fleet_audit_dropped_frames", float64(ag.audDrops))
		s.storeAgentObs(ag)
	}
	return ds, ag.gaps, nil
}

// storeAgentObs keeps the run's federated agent reports and incarnation
// ledger on the System so manifest and timeline export can reach them
// after aggregation finishes.
func (s *System) storeAgentObs(ag *fleetAggregator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agentReports = append([]*obs.AgentReport(nil), ag.reports...)
	s.agentIncs = append([]int64(nil), ag.lastInc...)
}

// AgentReports returns the latest federated report per agent from the
// last distributed run (nil entries for agents that never delivered
// one; nil slice for single-process or metrics-off runs).
func (s *System) AgentReports() []*obs.AgentReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agentReports
}

// AgentManifestRecords builds the per-agent manifest section of a
// distributed run from the federated reports, incarnation ledger, and
// coverage gaps. It returns nil when no distributed run happened.
func (s *System) AgentManifestRecords() []obs.AgentRecord {
	s.mu.Lock()
	reports, incs := s.agentReports, s.agentIncs
	s.mu.Unlock()
	if len(incs) == 0 {
		return nil
	}
	gapCells := make([]int, len(incs))
	for _, g := range s.FleetCoverageGaps() {
		if g.Agent >= 0 && g.Agent < len(gapCells) {
			gapCells[g.Agent] += g.Cells
		}
	}
	recs := make([]obs.AgentRecord, len(incs))
	for a := range recs {
		rec := obs.AgentRecord{
			Agent:    a,
			GapCells: gapCells[a],
			Stages:   []obs.StageRecord{},
			Gauges:   map[string]float64{},
		}
		if incs[a] >= 0 {
			rec.Incarnations = incs[a] + 1
			rec.Restarts = incs[a]
		}
		if a < len(reports) && reports[a] != nil {
			rep := reports[a]
			rec.SpanEvents = len(rep.Events)
			if rep.Stages != nil {
				rec.Stages = rep.Stages
			}
			for _, g := range rep.Gauges {
				rec.Gauges[g.Name] = g.V
			}
		}
		recs[a] = rec
	}
	return recs
}

// wait blocks until every agent is finished or the run fails, tail-
// gapping agents that stay disconnected longer than reconnectWait.
func (ag *fleetAggregator) wait(reconnectWait time.Duration) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		ag.mu.Lock()
		if ag.err != nil {
			err := ag.err
			ag.mu.Unlock()
			return err
		}
		doneAll := true
		now := time.Now()
		for a := 0; a < ag.agents; a++ {
			if ag.fin[a] {
				continue
			}
			if !ag.connected[a] && now.Sub(ag.lastSeen[a]) > reconnectWait {
				// The agent is not coming back: its remaining cells are
				// lost forever. Account them and finish its ledger.
				ag.markGaps(a, ag.received[a], ag.expected[a])
				ag.received[a] = ag.expected[a]
				ag.fin[a] = true
				ag.cond.Broadcast()
				continue
			}
			doneAll = false
		}
		ag.healthLocked(now)
		ag.mu.Unlock()
		if doneAll {
			return nil
		}
	}
	return nil
}

// healthLocked refreshes the wire-path health gauges, the per-agent
// liveness series, the agent panel on the live progress page, and the
// frontier-stall spans. Runs on every waiter tick; caller holds ag.mu.
func (ag *fleetAggregator) healthLocked(now time.Time) {
	reg := ag.s.Cfg.Obs
	if !reg.Enabled() {
		return
	}
	frontierWin := 0
	if ag.spw > 0 {
		frontierWin = ag.front.next / ag.spw
	}
	reg.SetGauge("fbdcnet_fleet_frontier_window", float64(frontierWin))
	reg.SetGauge("fbdcnet_fleet_parked_cells", float64(ag.front.parked))
	reg.SetGauge("fbdcnet_fleet_obs_dropped_frames", float64(ag.obsDrops))
	var b strings.Builder
	b.WriteString("  agent  state  inc  tasks            lag(win)  last-seen\n")
	for a := 0; a < ag.agents; a++ {
		up := 0.0
		state := "down"
		switch {
		case ag.fin[a]:
			state = "fin"
		case ag.connected[a]:
			state, up = "up", 1
		}
		lagWin := 0
		if span := ag.shards[a].Span(); span > 0 {
			lagWin = int(ag.received[a])/span - frontierWin
		}
		age := now.Sub(ag.lastSeen[a]).Seconds()
		lbl := ag.agentLabel[a]
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_up", "agent", lbl), up)
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_last_seen_age_seconds", "agent", lbl), age)
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_tasks_received", "agent", lbl), float64(ag.received[a]))
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_frontier_lag_windows", "agent", lbl), float64(lagWin))
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_incarnation", "agent", lbl), float64(ag.lastInc[a]))
		fmt.Fprintf(&b, "  %-5d  %-5s %4d  %7d/%-7d %8d  %6.1fs ago\n",
			a, state, ag.lastInc[a], ag.received[a], ag.expected[a], lagWin, age)
	}
	reg.SetPanel("agents", b.String())
	ag.stallLocked(now)
}

// stallLocked tracks frontier stalls: the merge head waiting on one
// agent's cell while later cells sit parked (the frontier consumes every
// cell it can reach, so any parked cell means the head is missing).
// Each stall becomes a `frontier-stall:agent-N` span on the aggregator
// timeline (the frontier-lag annotation of the exported trace) and a
// per-agent stall-seconds series. Caller holds ag.mu.
func (ag *fleetAggregator) stallLocked(now time.Time) {
	head := ag.front.next
	switch {
	case ag.front.parked > 0 && ag.stallCell == head:
		// Still stalled on the same cell: the open span keeps growing.
	case ag.front.parked > 0:
		ag.flushStallLocked(now)
		ag.stallCell, ag.stallStart = head, now
	default:
		ag.flushStallLocked(now)
	}
}

// flushStallLocked closes the open stall span, if any. Caller holds
// ag.mu.
func (ag *fleetAggregator) flushStallLocked(now time.Time) {
	if ag.stallCell < 0 {
		return
	}
	owner := ag.ownerOfCell(ag.stallCell)
	reg := ag.s.Cfg.Obs
	reg.RecordSpanAt(fmt.Sprintf("frontier-stall:agent-%d", owner), ag.stallStart, now)
	reg.Count(obs.Series("fbdcnet_fleet_frontier_stall_seconds_total", "agent", ag.agentLabel[owner]),
		now.Sub(ag.stallStart).Seconds())
	ag.stallCell = -1
}

// ownerOfCell maps a task-grid cell to the agent owning its shard.
func (ag *fleetAggregator) ownerOfCell(cell int) int {
	shard := cell % ag.spw
	for a, rg := range ag.shards {
		if shard >= rg.Lo && shard < rg.Hi {
			return a
		}
	}
	return 0
}

// handleConn runs one agent incarnation's session.
func (ag *fleetAggregator) handleConn(conn net.Conn) {
	defer conn.Close()
	reg := ag.s.Cfg.Obs
	r := fbwire.NewReader(conn)
	w := fbwire.NewWriter(conn)

	f, err := r.Next()
	if err != nil || f.Type != fbwire.TypeHello {
		return // never identified itself; nothing to account
	}
	h, err := fbwire.ParseHello(f.Payload)
	if err != nil {
		ag.fail(fmt.Errorf("core: aggregator: bad hello: %w", err))
		return
	}
	a := int(h.AgentID)

	ag.mu.Lock()
	if a >= ag.agents {
		ag.failLocked(fmt.Errorf("core: aggregator: agent id %d outside fleet of %d", a, ag.agents))
		ag.mu.Unlock()
		return
	}
	rg := ag.shards[a]
	if h.Check != ag.s.fleetConfigCheck() || int(h.ShardLo) != rg.Lo || int(h.ShardHi) != rg.Hi || int(h.Windows) != ag.s.Cfg.FleetWindows {
		ag.failLocked(fmt.Errorf("core: aggregator: agent %d handshake mismatch (shards [%d,%d) want [%d,%d), check %#x)",
			a, h.ShardLo, h.ShardHi, rg.Lo, rg.Hi, h.Check))
		ag.mu.Unlock()
		return
	}
	// A restarted agent can dial before the previous connection's EOF is
	// fully drained; wait for the old handler to retire so the resume
	// point reflects every frame the dead incarnation delivered.
	for ag.connected[a] && ag.err == nil {
		ag.cond.Wait()
	}
	if ag.err != nil || ag.fin[a] {
		ag.mu.Unlock()
		return
	}
	if int64(h.Incarnation) <= ag.lastInc[a] {
		ag.failLocked(fmt.Errorf("core: aggregator: agent %d replayed incarnation %d", a, h.Incarnation))
		ag.mu.Unlock()
		return
	}
	span := uint64(rg.Span())
	if h.Incarnation > 0 && span > 0 && ag.received[a]%span != 0 {
		// The previous incarnation died mid-window. Its window's rng
		// stream cannot be partially replayed without double-counting, so
		// the tail of that window is a coverage gap and the restart
		// resumes at the next window boundary.
		boundary := (ag.received[a]/span + 1) * span
		ag.markGaps(a, ag.received[a], boundary)
		ag.received[a] = boundary
	}
	ag.lastInc[a] = int64(h.Incarnation)
	ag.connected[a] = true
	ag.lastSeen[a] = time.Now()
	resume := ag.received[a]
	c := ag.front.get() // the envelope the next CELL frame decodes into
	ag.mu.Unlock()

	reg.AddGauge("fbdcnet_fleet_agents_connected", 1)
	connStart := time.Now()
	var frames int64
	defer func() {
		reg.AddGauge("fbdcnet_fleet_agents_connected", -1)
		reg.RecordSpanAt(fmt.Sprintf("fleet-agent-conn-%d", a), connStart, time.Now())
		reg.Count(obs.Series("fbdcnet_fleet_agent_rx_bytes_total", "agent", ag.agentLabel[a]), float64(r.BytesRead()))
		reg.Count(obs.Series("fbdcnet_fleet_agent_rx_frames_total", "agent", ag.agentLabel[a]), float64(frames))
		if h.Incarnation > 0 {
			reg.Count(obs.Series("fbdcnet_fleet_agent_reconnects_total", "agent", ag.agentLabel[a]), 1)
		}
		ag.mu.Lock()
		ag.front.put(c)
		ag.connected[a] = false
		ag.lastSeen[a] = time.Now()
		ag.cond.Broadcast()
		ag.mu.Unlock()
	}()

	if err := w.WriteWelcome(resume); err != nil {
		return
	}

	aud := ag.s.Cfg.Audit
	var sec fbwire.Sections
	for {
		f, err := r.Next()
		if err != nil {
			// Death (EOF, reset) mid-stream: the ledger keeps what
			// arrived; a restart or the reconnect timeout settles the rest.
			return
		}
		frames++
		switch f.Type {
		case fbwire.TypeCell:
			ph, err := fbwire.DecodeCell(f.Payload, c.p, &sec)
			if err != nil {
				ag.fail(fmt.Errorf("core: aggregator: agent %d frame: %w", a, err))
				return
			}
			ag.mu.Lock()
			window, shard := agentTask(rg, ph.Seq)
			if ph.Seq != ag.received[a] || int(ph.Window) != window || int(ph.Shard) != shard {
				ag.failLocked(fmt.Errorf("core: aggregator: agent %d sent task %d labeled (%d,%d), expected task %d",
					a, ph.Seq, ph.Window, ph.Shard, ag.received[a]))
				ag.mu.Unlock()
				return
			}
			// The optional sections are best-effort where the dataset
			// section is strict: one the aggregator cannot trust is
			// dropped and counted, and the cell still merges — without its
			// metrics, or with ledger holes for its checkpoints.
			if sec.Obs != nil {
				if ag.front.scratch.Decode(sec.Obs) != nil {
					ag.dropLocked(a, "fbdcnet_fleet_obs_drops_total", &ag.obsDrops)
				} else {
					c.delta = append(c.delta, sec.Obs...)
				}
			}
			if sec.HasAudit {
				if sec.AuditErr != nil || !aud.Enabled() {
					ag.dropLocked(a, "fbdcnet_fleet_audit_drops_total", &ag.audDrops)
				} else {
					c.aud.fromWire(window, shard, sec.Audit[:sec.NAudit])
				}
			}
			cell := window*ag.spw + shard
			aud.BB().Record(audit.EvFrameRx, "cell", fbwire.TypeCell, int64(cell))
			ag.front.park(cell, c)
			ag.front.advance()
			ag.received[a]++
			// Whether the frontier consumed the cell or it stays parked,
			// the envelope no longer belongs to this handler.
			c = ag.front.get()
			ag.mu.Unlock()
		case fbwire.TypeFin:
			sent, report, err := fbwire.ParseFin(f.Payload)
			var rep *obs.AgentReport
			if report != nil {
				rep = new(obs.AgentReport)
				if obs.DecodeReport(report, rep) != nil || int(rep.AgentID) != a {
					rep = nil
				}
			}
			ag.mu.Lock()
			if rep != nil {
				ag.reports[a] = rep
			} else if report != nil {
				ag.dropLocked(a, "fbdcnet_fleet_obs_drops_total", &ag.obsDrops)
			}
			if err != nil || ag.received[a] != ag.expected[a] {
				ag.failLocked(fmt.Errorf("core: aggregator: agent %d fin at %d of %d tasks (sent %d, err %v)",
					a, ag.received[a], ag.expected[a], sent, err))
				ag.mu.Unlock()
				return
			}
			ag.fin[a] = true
			ag.cond.Broadcast()
			ag.mu.Unlock()
			return
		default:
			ag.fail(fmt.Errorf("core: aggregator: agent %d sent unexpected frame type %#x", a, f.Type))
			return
		}
	}
}

// dropLocked counts one dropped best-effort section from agent a in the
// named per-agent series and the run total. Caller holds ag.mu.
func (ag *fleetAggregator) dropLocked(a int, series string, total *int64) {
	*total++
	ag.s.Cfg.Obs.Count(obs.Series(series, "agent", ag.agentLabel[a]), 1)
}

// markGaps accounts agent tasks [from, to) as coverage gaps, grouped
// into one contiguous run per window, and lets the frontier skip them.
// Caller holds ag.mu.
func (ag *fleetAggregator) markGaps(a int, from, to uint64) {
	rg := ag.shards[a]
	for t := from; t < to; {
		window, shard := agentTask(rg, t)
		runEnd := min(uint64(window+1)*uint64(rg.Span()), to)
		n := int(runEnd - t)
		ag.gaps = append(ag.gaps, CoverageGap{
			Agent: a, Window: window, ShardLo: shard, ShardHi: shard + n, Cells: n,
		})
		for c := 0; c < n; c++ {
			ag.front.gap(window*ag.spw + shard + c)
		}
		t = runEnd
	}
	ag.front.advance()
}

// fail records the first fatal protocol error; the waiter surfaces it.
func (ag *fleetAggregator) fail(err error) {
	ag.mu.Lock()
	ag.failLocked(err)
	ag.mu.Unlock()
}

func (ag *fleetAggregator) failLocked(err error) {
	if ag.err == nil {
		ag.err = err
	}
	ag.cond.Broadcast()
}
