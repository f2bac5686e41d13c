package fbwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/obs"
)

// FuzzFrameDecode drives the strict aggregator-side decode path —
// framing, header parsers, and the CELL frame's dataset section (the
// fbflow partial payload codec) — with arbitrary bytes. The invariants:
// never panic, never over-read (every frame's declared length is capped
// and bounds-checked), terminate with io.EOF only at a clean frame
// boundary, and reject duplicate or reordered CELL sequence numbers.
func FuzzFrameDecode(f *testing.F) {
	// A full valid session (hello, cells with cardinality, fin).
	f.Add(sessionBytes(f, 3, true))
	f.Add(sessionBytes(f, 1, false))
	// The same cell frame twice: a replay the reader must reject.
	one := sessionBytes(f, 1, false)
	f.Add(append(append([]byte{}, one...), one...))
	// Truncated mid-frame.
	f.Add(one[:len(one)/2])
	// Corrupt length prefix claiming 4 GiB.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, TypeCell})
	// Empty frame and unknown type.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0x7f})
	// A cell frame whose dataset section is garbage after a valid header.
	bad := make([]byte, 0, 64)
	bad = binary.LittleEndian.AppendUint32(bad, 1+cellHeaderLen+8)
	bad = append(bad, TypeCell)
	bad = binary.LittleEndian.AppendUint64(bad, 0) // seq
	bad = binary.LittleEndian.AppendUint32(bad, 0) // window
	bad = binary.LittleEndian.AppendUint32(bad, 0) // shard
	bad = append(bad, 0)                           // no optional sections
	bad = append(bad, 99, 0xff, 1, 2, 3, 4, 5, 6)  // bogus partial payload
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		into := fbflow.NewPartial()
		frames := 0
		var lastSeq uint64
		seenSeq := false
		for {
			fr, err := r.Next()
			if err != nil {
				if err == io.EOF && r.BytesRead() != int64(len(data)) {
					t.Fatalf("clean EOF after %d of %d bytes", r.BytesRead(), len(data))
				}
				if err != io.EOF && err.Error() == "" {
					t.Fatal("empty error message")
				}
				return
			}
			switch fr.Type {
			case TypeHello:
				if h, err := ParseHello(fr.Payload); err == nil && h.ShardHi < h.ShardLo {
					t.Fatalf("parser admitted inverted shard range: %+v", h)
				}
			case TypeWelcome:
				_, _ = ParseWelcome(fr.Payload)
			case TypeFin:
				_, _, _ = ParseFin(fr.Payload)
			case TypeCell:
				h, err := DecodePartial(fr.Payload, into)
				if err == nil {
					if seenSeq && h.Seq <= lastSeq {
						t.Fatalf("decoder admitted non-increasing seq %d after %d", h.Seq, lastSeq)
					}
					seenSeq, lastSeq = true, h.Seq
				}
			default:
				t.Fatalf("reader returned unknown frame type %#x", fr.Type)
			}
			frames++
			if frames > 1<<20 {
				t.Fatal("reader produced implausibly many frames")
			}
		}
	})
}

// sectionSession encodes HELLO, one CELL frame per (obs, audit) pair
// given, and a FIN carrying report — the side-channel shapes of a real
// agent session.
func sectionSession(tb testing.TB, obsBody []byte, aud []Checkpoint, report []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: Version, ShardHi: 2, Windows: 1}); err != nil {
		tb.Fatal(err)
	}
	p := fbflow.NewPartial()
	fillPartial(tb, p, 21, 16)
	if err := w.WriteCell(PartialHeader{Seq: 0, Window: 0, Shard: 1}, p, obsBody, aud); err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteFin(1, report); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// cellSectionsAt is the offset of the first optional section in a
// sectionSession: past the HELLO frame and the CELL frame's header.
const cellSectionsAt = 4 + 1 + helloWireLen + 4 + 1 + cellHeaderLen

// fuzzCellSections is the body shared by the side-channel fuzz targets:
// it decodes every CELL frame's optional sections, the obs delta and
// agent-report payload codecs behind them, and FIN's report section.
// The invariants: never panic; a malformed obs or audit section never
// changes the dataset section's verdict or content (sections are
// best-effort, the dataset is strict); admitted checkpoints carry valid
// stage ids and non-negative counts; a dropped audit section yields no
// checkpoints; and sections never perturb the strict seq ordering.
func fuzzCellSections(t *testing.T, data []byte) {
	r := NewReader(bytes.NewReader(data))
	withSec, bare := fbflow.NewPartial(), fbflow.NewPartial()
	var sec Sections
	var d obs.Delta
	var rep obs.AgentReport
	fold := obs.NewRegistry()
	frames := 0
	var lastSeq uint64
	seenSeq := false
	for {
		fr, err := r.Next()
		if err != nil {
			return
		}
		switch fr.Type {
		case TypeCell:
			h, err := DecodeCell(fr.Payload, withSec, &sec)
			_, bareErr := DecodePartial(fr.Payload, bare)
			if (err == nil) != (bareErr == nil) {
				t.Fatalf("sections changed the dataset verdict: %v vs %v", err, bareErr)
			}
			if err != nil {
				break
			}
			if !bytes.Equal(withSec.AppendBinary(nil), bare.AppendBinary(nil)) {
				t.Fatal("sections changed the decoded dataset section")
			}
			if seenSeq && h.Seq <= lastSeq {
				t.Fatalf("decoder admitted non-increasing seq %d after %d", h.Seq, lastSeq)
			}
			seenSeq, lastSeq = true, h.Seq
			if sec.Obs != nil {
				// The delta decoder must fail closed on garbage; a
				// successful decode must fold without panicking.
				if err := d.Decode(sec.Obs); err == nil {
					fold.FoldDelta(&d)
				}
			}
			if sec.AuditErr != nil && sec.NAudit != 0 || !sec.HasAudit && sec.NAudit != 0 {
				t.Fatalf("dropped or absent audit section kept %d checkpoints", sec.NAudit)
			}
			for _, c := range sec.Audit[:sec.NAudit] {
				if c.Stage != AuditFleetCell && c.Stage != AuditMatrixSynth {
					t.Fatalf("audit section admitted stage %#x", c.Stage)
				}
				if c.Count < 0 {
					t.Fatalf("audit section admitted negative count %d", c.Count)
				}
			}
		case TypeFin:
			if _, report, err := ParseFin(fr.Payload); err == nil && report != nil {
				_ = obs.DecodeReport(report, &rep)
			}
		case TypeHello, TypeWelcome:
		default:
			t.Fatalf("reader returned unknown frame type %#x", fr.Type)
		}
		frames++
		if frames > 1<<20 {
			t.Fatal("reader produced implausibly many frames")
		}
	}
}

// FuzzObsFrame drives the CELL frame's obs section and FIN's report
// section through fuzzCellSections.
func FuzzObsFrame(f *testing.F) {
	// A real cell delta: encode from a live shard.
	reg := obs.NewRegistry()
	c := reg.Counter("fbdcnet_fleet_flow_attempts_total", "t")
	h := reg.Histogram("fbdcnet_fleet_shard_us", "t")
	sh := reg.NewShard()
	sh.Add(c, 41)
	sh.Observe(h, 1300)
	delta := sh.AppendDelta(nil)
	f.Add(sectionSession(f, delta, nil, nil))
	// A real final report on FIN.
	f.Add(sectionSession(f, nil, nil, reg.AppendReport(nil, 2, 1)))
	// Delta and audit sections side by side, as on the real wire.
	f.Add(sectionSession(f, delta, cellAudit, reg.AppendReport(nil, 0, 0)))
	// Truncated mid-section, garbage delta, short report.
	whole := sectionSession(f, delta, nil, nil)
	f.Add(whole[:len(whole)/2])
	f.Add(sectionSession(f, []byte{0xde, 0xad, 0xbe, 0xef}, nil, nil))
	f.Add(sectionSession(f, nil, nil, []byte{1}))
	// An obs section whose declared length overruns the frame.
	over := sectionSession(f, delta, nil, nil)
	binary.LittleEndian.PutUint32(over[cellSectionsAt:], 1<<20)
	f.Add(over)
	f.Fuzz(fuzzCellSections)
}

// FuzzAuditFrame drives the CELL frame's audit section through
// fuzzCellSections: a dropped section becomes a ledger hole, never a
// dataset error.
func FuzzAuditFrame(f *testing.F) {
	// A realistic matrix-mode pair, then a sampling-mode single.
	f.Add(sectionSession(f, nil, cellAudit, nil))
	f.Add(sectionSession(f, nil, cellAudit[1:], nil))
	// Truncated, bogus stage, negative count.
	whole := sectionSession(f, nil, cellAudit[1:], nil)
	f.Add(whole[:len(whole)-40])
	bogus := append([]byte{}, whole...)
	bogus[cellSectionsAt+1] = 0x7f // the first checkpoint's stage byte
	f.Add(bogus)
	f.Fuzz(fuzzCellSections)
}
