package fbwire

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// fillPartial accumulates a deterministic record stream into p so frames
// under test carry realistic columnar payloads.
func fillPartial(tb testing.TB, p *fbflow.Partial, seed uint64, n int) {
	tb.Helper()
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	tagger := fbflow.NewTagger(topo)
	r := rng.New(seed)
	hosts := topo.NumHosts()
	for i := 0; i < n; i++ {
		src := topology.HostID(r.Intn(hosts))
		dst := topology.HostID(r.Intn(hosts))
		rec, ok := tagger.Flow(int64(i%7), topo.Addr(src), topo.Addr(dst), 40+r.Float64()*1e6)
		if !ok {
			tb.Fatalf("tagger rejected in-topology flow %d", i)
		}
		p.Add(rec)
	}
}

// sessionBytes encodes a full agent session: HELLO, n CELL frames with
// no optional sections, FIN.
func sessionBytes(tb testing.TB, n int, card bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: Version, AgentID: 2, Incarnation: 0, ShardLo: 4, ShardHi: 8, Windows: 6, Check: 0xfeedface}); err != nil {
		tb.Fatal(err)
	}
	p := fbflow.NewPartial()
	if card {
		p.EnableCardinality()
	}
	for i := 0; i < n; i++ {
		p.Reset()
		fillPartial(tb, p, uint64(100+i), 512)
		h := PartialHeader{Seq: uint64(i), Window: uint32(i / 4), Shard: uint32(4 + i%4)}
		if err := w.WritePartial(h, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.WriteFin(uint64(n), nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestSessionRoundTrip(t *testing.T) {
	wire := sessionBytes(t, 6, true)
	r := NewReader(bytes.NewReader(wire))

	f, err := r.Next()
	if err != nil || f.Type != TypeHello {
		t.Fatalf("first frame: type %#x err %v", f.Type, err)
	}
	h, err := ParseHello(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.AgentID != 2 || h.ShardLo != 4 || h.ShardHi != 8 || h.Windows != 6 || h.Check != 0xfeedface {
		t.Fatalf("hello round-trip: %+v", h)
	}

	into := fbflow.NewPartial()
	want := fbflow.NewPartial()
	want.EnableCardinality()
	for i := 0; i < 6; i++ {
		f, err := r.Next()
		if err != nil || f.Type != TypeCell {
			t.Fatalf("cell %d: type %#x err %v", i, f.Type, err)
		}
		ph, err := DecodePartial(f.Payload, into)
		if err != nil {
			t.Fatal(err)
		}
		if ph.Seq != uint64(i) || ph.Window != uint32(i/4) || ph.Shard != uint32(4+i%4) {
			t.Fatalf("partial header %d round-trip: %+v", i, ph)
		}
		want.Reset()
		fillPartial(t, want, uint64(100+i), 512)
		// Byte-identical re-encode proves the payload (and its insertion
		// order) survived framing intact.
		if !bytes.Equal(into.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("partial %d payload changed across the wire", i)
		}
	}

	f, err = r.Next()
	if err != nil || f.Type != TypeFin {
		t.Fatalf("fin frame: type %#x err %v", f.Type, err)
	}
	sent, report, err := ParseFin(f.Payload)
	if err != nil || sent != 6 || report != nil {
		t.Fatalf("fin: sent %d report %q err %v", sent, report, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
	if r.BytesRead() != int64(len(wire)) {
		t.Fatalf("BytesRead %d, wire %d", r.BytesRead(), len(wire))
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteWelcome(17); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d, buffer %d", w.BytesWritten(), buf.Len())
	}
	r := NewReader(&buf)
	f, err := r.Next()
	if err != nil || f.Type != TypeWelcome {
		t.Fatalf("welcome frame: type %#x err %v", f.Type, err)
	}
	resume, err := ParseWelcome(f.Payload)
	if err != nil || resume != 17 {
		t.Fatalf("welcome: resume %d err %v", resume, err)
	}
}

func TestReaderRejectsDuplicateSeq(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := fbflow.NewPartial()
	fillPartial(t, p, 5, 64)
	if err := w.WritePartial(PartialHeader{Seq: 3, Window: 0, Shard: 0}, p); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{}, buf.Bytes()...)

	// The same frame twice: the replay must error at the reader.
	r := NewReader(bytes.NewReader(append(append([]byte{}, frame...), frame...)))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("replayed frame got %v, want duplicate-seq error", err)
	}

	// A lower seq after a higher one must also error.
	if err := w.WritePartial(PartialHeader{Seq: 1, Window: 0, Shard: 1}, p); err != nil {
		t.Fatal(err)
	}
	r = NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("reordered seq decoded cleanly")
	}
}

func TestReaderErrors(t *testing.T) {
	wire := sessionBytes(t, 2, false)

	// Every truncation point must end in io.ErrUnexpectedEOF or a real
	// error, never a panic or a clean EOF mid-frame.
	for cut := 1; cut < len(wire); cut += 211 {
		r := NewReader(bytes.NewReader(wire[:cut]))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err == io.EOF && cut != len(wire) {
			// A cut at a frame boundary legitimately reads as clean EOF.
			ok := false
			probe := NewReader(bytes.NewReader(wire[:cut]))
			for {
				if _, perr := probe.Next(); perr != nil {
					ok = perr == io.EOF
					break
				}
			}
			if !ok {
				t.Fatalf("cut at %d: clean EOF mid-frame", cut)
			}
		}
	}

	// A corrupt length prefix beyond the cap must error before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff, TypeFin}
	if _, err := NewReader(bytes.NewReader(huge)).Next(); err == nil {
		t.Fatal("oversized frame length decoded cleanly")
	}
	// A zero-length frame is invalid: every frame has a type byte.
	if _, err := NewReader(bytes.NewReader([]byte{0, 0, 0, 0})).Next(); err == nil {
		t.Fatal("empty frame decoded cleanly")
	}
	// Unknown frame type.
	if _, err := NewReader(bytes.NewReader([]byte{1, 0, 0, 0, 0x7f})).Next(); err == nil {
		t.Fatal("unknown frame type decoded cleanly")
	}

	// Fixed-size payload parsers must reject wrong lengths.
	if _, err := ParseHello(make([]byte, 5)); err == nil {
		t.Fatal("short hello parsed cleanly")
	}
	if _, err := ParseWelcome(make([]byte, 4)); err == nil {
		t.Fatal("short welcome parsed cleanly")
	}
	if _, _, err := ParseFin(make([]byte, 7)); err == nil {
		t.Fatal("short fin parsed cleanly")
	}
	// Version and shard-range validation in HELLO.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: 99}); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(f.Payload); err == nil {
		t.Fatal("wrong protocol version parsed cleanly")
	}
	// A version-1 agent speaks PARTIAL/OBS/AUDIT frames: its HELLO must
	// fail the handshake rather than desynchronize the stream later.
	buf.Reset()
	if err := w.WriteHello(Hello{Version: 1, ShardLo: 0, ShardHi: 4}); err != nil {
		t.Fatal(err)
	}
	if f, err = NewReader(&buf).Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(f.Payload); err == nil {
		t.Fatal("v1 hello parsed cleanly")
	}
	buf.Reset()
	if err := w.WriteHello(Hello{Version: Version, ShardLo: 8, ShardHi: 4}); err != nil {
		t.Fatal(err)
	}
	if f, err = NewReader(&buf).Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(f.Payload); err == nil {
		t.Fatal("inverted shard range parsed cleanly")
	}
}

// cellObs is a stand-in obs section: opaque bytes at this layer.
var cellObs = []byte{1, 2, 0, 3, 'a', 'b', 'c', 4, 0, 0, 0, 0, 0, 0, 0}

// cellAudit is a matrix-mode cell's audit section.
var cellAudit = []Checkpoint{
	{Stage: AuditMatrixSynth, Sum: 0xfeedfacecafebeef, Count: 64},
	{Stage: AuditFleetCell, Sum: 0x0123456789abcdef, Count: 6 * 1200},
}

// TestSteadyStateAllocs pins the full agent→aggregator wire path —
// encode+frame on one side, read+decode of a CELL frame carrying the
// dataset, obs and audit sections on the other — at zero steady-state
// allocations per frame.
func TestSteadyStateAllocs(t *testing.T) {
	p := fbflow.NewPartial()
	fillPartial(t, p, 11, 4096)
	sink := &countWriter{}
	w := NewWriter(sink)
	seq := uint64(0)
	write := func() {
		if err := w.WriteCell(PartialHeader{Seq: seq, Window: 0, Shard: 0}, p, cellObs, cellAudit[1:]); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	write() // warm the encode buffer
	if n := testing.AllocsPerRun(50, write); n != 0 {
		t.Fatalf("steady-state frame encode allocates %v/op", n)
	}

	// Decode side: one frame's bytes replayed through a resettable reader.
	var one bytes.Buffer
	w2 := NewWriter(&one)
	if err := w2.WriteCell(PartialHeader{Seq: 0, Window: 0, Shard: 0}, p, cellObs, cellAudit[1:]); err != nil {
		t.Fatal(err)
	}
	frame := one.Bytes()
	src := bytes.NewReader(frame)
	r := NewReader(src)
	into := fbflow.NewPartial()
	var sec Sections
	read := func() {
		src.Reset(frame)
		r.seenSeq = false // replaying the same seq on purpose
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCell(f.Payload, into, &sec); err != nil {
			t.Fatal(err)
		}
		if len(sec.Obs) != len(cellObs) || sec.NAudit != 1 {
			t.Fatalf("sections decoded as %d obs bytes, %d checkpoints", len(sec.Obs), sec.NAudit)
		}
	}
	read() // warm the frame buffer and into's tables
	if n := testing.AllocsPerRun(50, read); n != 0 {
		t.Fatalf("steady-state frame decode allocates %v/op", n)
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// cellFrame encodes one CELL frame as the agent's Writer emits it.
func cellFrame(tb testing.TB, h PartialHeader, p *fbflow.Partial, obs []byte, aud []Checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteCell(h, p, obs, aud); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestAuditRoundTrip checks the CELL frame's optional sections survive
// the wire beside the dataset section, and that a malformed audit
// section is dropped without touching the partial.
func TestAuditRoundTrip(t *testing.T) {
	p := fbflow.NewPartial()
	fillPartial(t, p, 3, 128)
	want := p.AppendBinary(nil)
	into := fbflow.NewPartial()
	var sec Sections
	for i, tc := range []struct {
		obs []byte
		aud []Checkpoint
	}{{cellObs, cellAudit}, {nil, cellAudit[1:]}, {cellObs, nil}, {nil, nil}} {
		h := PartialHeader{Seq: uint64(i), Window: 1, Shard: uint32(i)}
		frame := cellFrame(t, h, p, tc.obs, tc.aud)
		f, err := NewReader(bytes.NewReader(frame)).Next()
		if err != nil || f.Type != TypeCell {
			t.Fatalf("cell %d: type %#x err %v", i, f.Type, err)
		}
		got, err := DecodeCell(f.Payload, into, &sec)
		if err != nil || got != h {
			t.Fatalf("cell %d: header %+v err %v", i, got, err)
		}
		if !bytes.Equal(into.AppendBinary(nil), want) {
			t.Fatalf("cell %d: dataset section changed across the wire", i)
		}
		if !bytes.Equal(sec.Obs, tc.obs) || (sec.Obs == nil) != (tc.obs == nil) {
			t.Fatalf("cell %d: obs section %v, want %v", i, sec.Obs, tc.obs)
		}
		if sec.HasAudit != (tc.aud != nil) || sec.AuditErr != nil || sec.NAudit != len(tc.aud) {
			t.Fatalf("cell %d: audit section %+v, want %v", i, sec, tc.aud)
		}
		for k, c := range tc.aud {
			if sec.Audit[k] != c {
				t.Fatalf("cell %d checkpoint %d: got %+v want %+v", i, k, sec.Audit[k], c)
			}
		}
	}

	// Malformed audit sections are dropped, the dataset section survives.
	frame := cellFrame(t, PartialHeader{}, p, nil, cellAudit[1:])
	stage := 4 + 1 + cellHeaderLen + 1 // first checkpoint's stage byte
	for name, mutate := range map[string]func(b []byte){
		"bad stage":      func(b []byte) { b[stage] = 0x7f },
		"negative count": func(b []byte) { b[stage+16] = 0xff },
	} {
		b := append([]byte{}, frame...)
		mutate(b)
		f, err := NewReader(bytes.NewReader(b)).Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeCell(f.Payload, into, &sec); err != nil {
			t.Fatalf("%s: malformed audit section failed the dataset section: %v", name, err)
		}
		if !sec.HasAudit || sec.AuditErr == nil || sec.NAudit != 0 {
			t.Fatalf("%s: audit section not dropped: %+v", name, sec)
		}
	}
}

// TestAuditSteadyStateAllocs pins a matrix-mode CELL frame — obs
// section plus both checkpoints — at zero steady-state allocations on
// encode and section decode: the side channels must not tax the dataset
// path they ride beside.
func TestAuditSteadyStateAllocs(t *testing.T) {
	p := fbflow.NewPartial()
	w := NewWriter(&countWriter{})
	h := PartialHeader{Seq: 7, Window: 1, Shard: 2}
	write := func() {
		if err := w.WriteCell(h, p, cellObs, cellAudit); err != nil {
			t.Fatal(err)
		}
		h.Seq++
	}
	write() // warm the encode buffer
	if n := testing.AllocsPerRun(50, write); n != 0 {
		t.Fatalf("steady-state cell encode allocates %v/op", n)
	}
	payload := cellFrame(t, h, p, cellObs, cellAudit)[5:]
	var sec Sections
	decode := func() {
		if _, err := DecodeCell(payload, p, &sec); err != nil || sec.NAudit != 2 {
			t.Fatalf("decode: %d checkpoints, err %v", sec.NAudit, err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(50, decode); n != 0 {
		t.Fatalf("steady-state cell section decode allocates %v/op", n)
	}
}

// Per-cell framing bytes of the version-1 protocol, which sent each cell
// as up to three frames (4-byte length prefix and type byte each):
// PARTIAL carried seq, window and shard; OBS a kind byte and seq; AUDIT
// stage, seq, window, shard, sum and count — one AUDIT per checkpoint.
const (
	v1PartialOverhead = 4 + 1 + 8 + 4 + 4
	v1ObsOverhead     = 4 + 1 + 1 + 8
	v1AuditOverhead   = 4 + 1 + 1 + 8 + 4 + 4 + 8 + 8
)

// TestCellFramingOverhead pins the per-cell wire cost of one CELL frame
// against the three frames it replaced: strictly smaller with the obs
// and audit sections on (one or two checkpoints), and at most the one
// section-flags byte larger with both off.
func TestCellFramingOverhead(t *testing.T) {
	if v1PartialOverhead != 21 || v1ObsOverhead != 14 || v1AuditOverhead != 38 {
		t.Fatal("version-1 frame constants drifted")
	}
	p := fbflow.NewPartial()
	fillPartial(t, p, 9, 256)
	body := len(p.AppendBinary(nil))
	overhead := func(obs []byte, aud []Checkpoint) int {
		return len(cellFrame(t, PartialHeader{Seq: 1, Window: 2, Shard: 3}, p, obs, aud)) - body - len(obs)
	}
	for _, tc := range []struct {
		name     string
		obs      []byte
		aud      []Checkpoint
		v1, want int
	}{
		{"obs+audit", cellObs, cellAudit[1:], v1PartialOverhead + v1ObsOverhead + v1AuditOverhead, 44},
		{"obs+audit matrix", cellObs, cellAudit, v1PartialOverhead + v1ObsOverhead + 2*v1AuditOverhead, 61},
		{"off", nil, nil, v1PartialOverhead, 22},
	} {
		got := overhead(tc.obs, tc.aud)
		if got != tc.want {
			t.Errorf("%s: %d framing bytes per cell, pinned at %d", tc.name, got, tc.want)
		}
		if tc.obs == nil && got > tc.v1+1 || tc.obs != nil && got >= tc.v1 {
			t.Errorf("%s: %d framing bytes per cell, version 1 took %d", tc.name, got, tc.v1)
		}
	}
}

// TestFinReport checks FIN's optional report section round-trips.
func TestFinReport(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteFin(5, []byte("report")); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).Next()
	if err != nil || f.Type != TypeFin {
		t.Fatalf("fin frame: type %#x err %v", f.Type, err)
	}
	sent, report, err := ParseFin(f.Payload)
	if err != nil || sent != 5 || string(report) != "report" {
		t.Fatalf("fin: sent %d report %q err %v", sent, report, err)
	}
}
