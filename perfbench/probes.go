package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// A probe replays one workload's own inputs through each layer's public
// functions, one layer at a time, on one goroutine, so per-layer work and
// time are measured from outside the program. Each probe also checks that
// its replay reproduces the traced public call's result: a probe that
// drifted from the program's call path fails the run instead of
// reporting numbers about different work.
//
// Span layers name the repository's packages. Layer "probe" is the
// replay's own glue (buffering between layers), which is not program
// work and counts as unattributed.

// prober carries one probe's context and the counts it gathers.
type prober struct {
	cfg  core.Config
	sys  *core.System // the traced operation's System, after the operation
	ref  opResult     // the traced operation's result
	t    *tracer
	root int
	n    map[string]float64 // work counts, by name
	chk  *checker
}

// expect counts one check that the replay reproduced the traced call.
func (p *prober) expect(ok bool, format string, args ...any) {
	p.chk.check(ok, format, args...)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeTopology times the topology build NewSystem performs.
func probeTopology(p *prober) error {
	var err error
	p.t.call(p.root, "topology.Build", "topology", func() {
		_, err = topology.Build(topology.Preset(p.cfg.Scale))
	})
	return err
}

// --- switch-buffer -------------------------------------------------------

// probeSwitchBuffer replays Figure 15: per-host synthesis, the
// time-ordered merge, Engine.At + Fabric.Inject scheduling, Engine.Run,
// and the buffer-occupancy analysis, each in its own span.
func probeSwitchBuffer(p *prober) error {
	if err := probeTopology(p); err != nil {
		return err
	}
	s, fc := p.sys, fig15Config()
	eng := &netsim.Engine{}
	fcfg := netsim.DefaultFabricConfig()
	fcfg.RSWBufBytes = fc.BufBytes
	var fabric *netsim.Fabric
	p.t.call(p.root, "netsim.NewFabric", "netsim", func() { fabric = netsim.NewFabric(eng, s.Topo, fcfg) })
	webRSW := fabric.RSW(s.Topo.HostRack(s.Monitored(topology.RoleWeb)))
	cacheRSW := fabric.RSW(s.Topo.HostRack(s.Monitored(topology.RoleCacheFollower)))
	webBuf := analysis.NewBufferStats(fc.BufBytes)
	cacheBuf := analysis.NewBufferStats(fc.BufBytes)

	synth := p.t.coalesce(p.root, "services.trace", "services")
	merge := p.t.coalesce(p.root, "core.figure15_merge", "core")
	sched := p.t.coalesce(p.root, "netsim.schedule", "netsim")
	run := p.t.coalesce(p.root, "netsim.run", "netsim")
	buf := p.t.coalesce(p.root, "analysis.buffer", "analysis")

	type occ struct {
		t netsim.Time
		v int64
	}
	winDur := netsim.Time(fc.WindowSec) * netsim.Second
	var webDrops, cacheDrops []int64
	var prevWeb, prevCache int64
	var synthMallocs, netMallocs uint64
	for w := 0; w < fc.Windows; w++ {
		start := netsim.Time(w) * winDur
		var hdrs []packet.Header
		collect := workload.CollectorFunc(func(h packet.Header) { hdrs = append(hdrs, h) })
		m0 := mallocs()
		for _, h := range fig15Hosts(s) {
			tr := fig15Trace(s, fc, w, h, collect)
			synth.time(func() {
				p.n["events"] += float64(tr.G.Eng.Run(winDur))
				tr.G.Flush()
			})
			p.n["trace_pkts"] += float64(tr.Emitted())
			p.n["batches"] += float64(tr.G.Batches())
		}
		synthMallocs += mallocs() - m0
		merge.time(func() {
			sort.SliceStable(hdrs, func(i, j int) bool { return hdrs[i].Time < hdrs[j].Time })
		})
		m0 = mallocs()
		sched.time(func() {
			for _, h := range hdrs {
				h.Time += int64(start)
				eng.At(h.Time, func() { fabric.Inject(h) })
			}
		})
		p.n["scheduled"] += float64(len(hdrs))
		hdrs = nil
		for _, l := range fabric.LinksByTier(netsim.TierHostRSW) {
			l.ResetCounters()
		}
		var webOcc, cacheOcc []occ
		netsim.SampleOccupancy(eng, webRSW, fc.SampleEvery, start+winDur,
			func(t netsim.Time, v int64) { webOcc = append(webOcc, occ{t, v}) })
		netsim.SampleOccupancy(eng, cacheRSW, fc.SampleEvery, start+winDur,
			func(t netsim.Time, v int64) { cacheOcc = append(cacheOcc, occ{t, v}) })
		run.time(func() {
			n := float64(eng.Run(start + winDur))
			p.n["events"] += n
			p.n["fabric_events"] += n
		})
		netMallocs += mallocs() - m0
		buf.time(func() {
			for _, o := range webOcc {
				webBuf.Sample(o.t, o.v)
			}
			for _, o := range cacheOcc {
				cacheBuf.Sample(o.t, o.v)
			}
		})
		p.n["buffer_samples"] += float64(len(webOcc) + len(cacheOcc))
		webDrops = append(webDrops, webRSW.Drops()-prevWeb)
		cacheDrops = append(cacheDrops, cacheRSW.Drops()-prevCache)
		prevWeb, prevCache = webRSW.Drops(), cacheRSW.Drops()
	}
	buf.time(func() {
		webBuf.Finish()
		cacheBuf.Finish()
	})
	st := fabric.Stats()
	p.n["injected"], p.n["forwarded"], p.n["drops"] = float64(st.Injected), float64(st.Forwarded), float64(st.Drops)
	p.n["trace_mallocs"] = float64(synthMallocs)
	p.n["netsim_mallocs"] = float64(netMallocs)

	var got core.Figure15Result
	if err := json.Unmarshal(p.ref.outputs["figure15"], &got); err != nil {
		return err
	}
	replayed := fmt.Sprint(webBuf.Median(), webBuf.Max(), cacheBuf.Median(), cacheBuf.Max(), webDrops, cacheDrops)
	traced := fmt.Sprint(got.WebMedian, got.WebMax, got.CacheMedian, got.CacheMax, got.WebDrops, got.CacheDrops)
	p.expect(replayed == traced, "switch-buffer probe: replayed buffer series differ from Figure15's")
	p.expect(p.n["scheduled"] == p.n["trace_pkts"], "switch-buffer probe: scheduled %v of %v synthesized packets",
		p.n["scheduled"], p.n["trace_pkts"])
	return nil
}

// --- host-traces ---------------------------------------------------------

// timedSink wraps one analysis consumer so each batch it handles is
// timed into its layer's coalesced span.
type timedSink struct {
	c workload.BatchCollector
	a *acc
}

func (t timedSink) Packet(h packet.Header) { t.Packets([]packet.Header{h}) }

func (t timedSink) Packets(hs []packet.Header) {
	start := time.Now()
	t.c.Packets(hs)
	t.a.add(start, time.Now())
}

// consumerNames are the analysis consumers a trace bundle feeds; the
// probe reports ns per packet for each.
var consumerNames = []string{"mix", "locality", "flows", "rates", "sizes", "arrivals", "conc", "heavy"}

// probeHostTraces replays every trace bundle Prewarm generates, with each
// analysis consumer timed on its own, then the fleet collection Prewarm
// also runs, then each section's render on the warmed System.
func probeHostTraces(p *prober) error {
	if err := probeTopology(p); err != nil {
		return err
	}
	s := p.sys
	for _, bd := range traceBundles() {
		probeBundle(p, s, bd)
	}
	if err := probeFleetReplay(p, false); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, n := range hostSections {
		want[n] = true
	}
	for _, sec := range core.SuiteSections(s) {
		if want[sec.Name] {
			var body string
			p.t.call(p.root, "render."+sec.Name, "core", func() { body = sec.Run(s) })
			p.expect(body == string(p.ref.outputs["section:"+sec.Name]),
				"host-traces probe: section %s re-renders differently", sec.Name)
		}
	}
	return nil
}

// probeBundle replays one (role, seconds) capture with the consumers and
// seed core's trace generation uses, and checks the packet count and
// table sizes against the traced System's bundle.
func probeBundle(p *prober, s *core.System, bd bundle) {
	host := s.Monitored(bd.role)
	topo := s.Topo
	parent := p.t.begin(p.root, fmt.Sprintf("trace.%s.%d", roleName(bd.role), bd.sec), "services")
	accs := map[string]*acc{}
	for _, n := range consumerNames {
		accs[n] = p.t.coalesce(parent, "analysis."+n, "analysis")
	}
	rates := analysis.NewRateSeries(topo, host)
	switch bd.role {
	case topology.RoleCacheFollower:
		rates.Filter = func(d topology.HostID) bool { return topo.HostRole(d) == topology.RoleWeb }
	case topology.RoleCacheLeader:
		rates.Filter = func(d topology.HostID) bool {
			r := topo.HostRole(d)
			return r == topology.RoleCacheFollower || r == topology.RoleCacheLeader
		}
	case topology.RoleWeb:
		rates.Filter = func(d topology.HostID) bool { return topo.HostRole(d) == topology.RoleCacheFollower }
	}
	flows := analysis.NewFlows(topo, host)
	conc := analysis.NewConcurrency(topo, host, analysis.ConcurrencyWindow)
	wrap := func(name string, c workload.Collector) workload.Collector {
		return timedSink{c: workload.Batched(c), a: accs[name]}
	}
	sinks := workload.Fanout{
		wrap("mix", analysis.NewServiceMix(topo, host)),
		wrap("locality", analysis.NewLocalitySeries(topo, host)),
		wrap("flows", flows),
		wrap("rates", rates),
		wrap("sizes", analysis.NewPacketSizes()),
		wrap("arrivals", analysis.NewArrivals(topo.Addr(host), 15*netsim.Millisecond, 100*netsim.Millisecond)),
		wrap("conc", conc),
	}
	var hhs []analysis.HeavyTracker
	for _, lvl := range []analysis.Level{analysis.LevelFlow, analysis.LevelHost, analysis.LevelRack} {
		for _, bin := range core.HHBins {
			hh := analysis.NewHeavyTracker(topo, host, lvl, bin, s.Cfg.SketchMode)
			hhs = append(hhs, hh)
			sinks = append(sinks, wrap("heavy", hh))
		}
	}
	seed := s.Cfg.Seed ^ uint64(bd.role)<<8 ^ uint64(bd.sec)
	tr := services.NewTrace(s.Pick, host, seed, s.Cfg.Params, sinks)
	m0 := mallocs()
	events := tr.G.Eng.Run(netsim.Time(bd.sec) * netsim.Second)
	tr.G.Flush()
	p.n["trace_mallocs"] += float64(mallocs() - m0)
	accs["conc"].time(conc.Finish)
	accs["heavy"].time(func() {
		for _, hh := range hhs {
			hh.Finish()
		}
	})
	p.t.end(parent)

	pkts := tr.Emitted()
	p.n["events"] += float64(events)
	p.n["trace_pkts"] += float64(pkts)
	p.n["batches"] += float64(tr.G.Batches())
	stats := append(flows.TableStats(), conc.TableStats()...)
	for _, hh := range hhs {
		stats = append(stats, hh.TableStats()...)
	}
	rows, grows := tableTotals(stats)
	p.n["table_rows"] += float64(rows)
	p.n["table_grows"] += float64(grows)

	ref := s.Trace(bd.role, bd.sec)
	refStats := append(ref.Flows.TableStats(), ref.Conc.TableStats()...)
	for _, m := range ref.HH {
		for _, hh := range m {
			refStats = append(refStats, hh.TableStats()...)
		}
	}
	refRows, _ := tableTotals(refStats)
	p.expect(pkts == ref.Packets && rows == refRows,
		"host-traces probe: bundle %s/%ds replayed %d packets, %d rows; Prewarm had %d, %d",
		roleName(bd.role), bd.sec, pkts, rows, ref.Packets, refRows)
}

func tableTotals(stats []analysis.TableStats) (rows, grows int) {
	for _, st := range stats {
		rows += st.Rows
		grows += st.Grows
	}
	return rows, grows
}

// --- fleet-inproc / fleet-agents -----------------------------------------

// fleetShardHosts mirrors core's fixed host-range width of one fleet
// shard; the probe's digest check fails if the two ever differ.
const fleetShardHosts = 128

func probeFleetInproc(p *prober) error {
	if err := probeTopology(p); err != nil {
		return err
	}
	return probeFleetReplay(p, false)
}

func probeFleetAgents(p *prober) error {
	if err := probeTopology(p); err != nil {
		return err
	}
	return probeFleetReplay(p, true)
}

// probeFleetReplay replays the fleet collection cell by cell in task
// order: FleetProgram.Flows, Tagger.Flow, Partial.Add, and
// Dataset.MergePartial, each in its own span. With wire set, every cell
// also goes through Partial.AppendBinary, an fbwire.Writer frame, an
// fbwire.Reader and DecodePartial before the merge, as an agent's cell
// does. The replayed dataset's digest must equal the traced operation's.
func probeFleetReplay(p *prober, wire bool) error {
	s := p.sys
	cfg := s.Cfg
	topo := s.Topo
	svc := p.t.coalesce(p.root, "services.fleet", "services")
	tag := p.t.coalesce(p.root, "fbflow.tag", "fbflow")
	add := p.t.coalesce(p.root, "fbflow.add", "fbflow")
	merge := p.t.coalesce(p.root, "fbflow.merge", "fbflow")
	var enc, dec, wr, rd *acc
	var pipe bytes.Buffer
	var fw *fbwire.Writer
	var fr *fbwire.Reader
	if wire {
		enc = p.t.coalesce(p.root, "fbflow.encode", "fbflow")
		dec = p.t.coalesce(p.root, "fbflow.decode", "fbflow")
		wr = p.t.coalesce(p.root, "fbwire.write", "fbwire")
		rd = p.t.coalesce(p.root, "fbwire.read", "fbwire")
		fw = fbwire.NewWriter(&pipe)
		fr = fbwire.NewReader(&pipe)
	}

	type flow struct {
		src   packet.Addr
		dst   topology.HostID
		bytes float64
	}
	var (
		flows   []flow
		recs    []fbflow.Record
		encBuf  []byte
		prog    = services.NewFleetProgram(s.Pick, cfg.Params)
		tagger  = fbflow.NewTagger(topo)
		ds      = fbflow.NewDataset()
		part    = fbflow.NewPartial()
		decoded = fbflow.NewPartial()
		seq     uint64
	)
	if cfg.SketchMode {
		part.EnableCardinality()
		decoded.EnableCardinality()
	}
	nHosts := topo.NumHosts()
	shards := (nHosts + fleetShardHosts - 1) / fleetShardHosts
	for w := 0; w < cfg.FleetWindows; w++ {
		load := core.DiurnalFactor(float64(w) / float64(cfg.FleetWindows))
		minute := int64(w)
		for sh := 0; sh < shards; sh++ {
			r := rng.NewKeyed(cfg.Seed^0xf1ee7, uint64(w), uint64(sh))
			lo, hi := sh*fleetShardHosts, min((sh+1)*fleetShardHosts, nHosts)
			flows, recs = flows[:0], recs[:0]
			var srcAddr packet.Addr
			emit := func(dst topology.HostID, bytes float64) {
				flows = append(flows, flow{srcAddr, dst, bytes})
			}
			svc.time(func() {
				for src := topology.HostID(lo); src < topology.HostID(hi); src++ {
					srcAddr = topo.Addr(src)
					prog.Flows(r, src, cfg.FleetWindowSec, load, cfg.FleetSamples, emit)
				}
			})
			tag.time(func() {
				for _, f := range flows {
					if rec, ok := tagger.Flow(minute, f.src, topo.Addr(f.dst), f.bytes); ok {
						recs = append(recs, rec)
					}
				}
			})
			add.time(func() {
				for _, rec := range recs {
					part.Add(rec)
				}
			})
			p.n["fleet_flows"] += float64(len(flows))
			p.n["records"] += float64(len(recs))
			p.n["cells"]++
			into := part
			if wire {
				var err error
				enc.time(func() { encBuf = part.AppendBinary(encBuf[:0]) })
				p.n["partial_bytes"] += float64(len(encBuf))
				wr.time(func() {
					err = fw.WritePartial(fbwire.PartialHeader{Seq: seq, Window: uint32(w), Shard: uint32(sh)}, part)
				})
				if err != nil {
					return err
				}
				var f fbwire.Frame
				rd.time(func() { f, err = fr.Next() })
				if err != nil {
					return err
				}
				dec.time(func() { _, err = fbwire.DecodePartial(f.Payload, decoded) })
				if err != nil {
					return err
				}
				seq++
				p.n["frames"]++
				into = decoded
			}
			merge.time(func() { ds.MergePartial(into) })
			part.Reset()
			decoded.Reset()
		}
	}
	if wire {
		p.n["wire_bytes"] = float64(fw.BytesWritten())
		p.expect(fr.BytesRead() == fw.BytesWritten(), "fleet probe: read %d of %d wire bytes",
			fr.BytesRead(), fw.BytesWritten())
	}

	// The replayed dataset, injected into a fresh System, must digest to
	// the same bytes as the traced operation's collection.
	check, err := core.NewSystem(p.cfg)
	if err != nil {
		return err
	}
	check.InjectFleetDataset(ds, nil)
	var got []byte
	p.t.call(p.root, "core.FleetDigest", "core", func() { got, err = check.FleetDigest().JSON() })
	if err != nil {
		return err
	}
	refDigest := p.ref.outputs["digest"]
	if refDigest == nil { // host-traces: compare with the warmed System's dataset
		if refDigest, err = s.FleetDigest().JSON(); err != nil {
			return err
		}
	}
	p.expect(bytes.Equal(got, refDigest), "fleet probe: replayed dataset digests differently from the traced collection")
	return nil
}
