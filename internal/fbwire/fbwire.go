// Package fbwire is the binary stream protocol between distributed fleet
// agents and the fbflowd aggregator — the Scribe leg of the paper's
// Fbflow pipeline (§3.3.1), reduced to what the reproduction needs: a
// handshake, then one length-prefixed CELL frame per task cell in task
// order.
//
// A session over one connection looks like:
//
//	agent → HELLO   (agent identity, shard range, incarnation, config check)
//	agent ← WELCOME (resume task index — 0 for a fresh run, later after a
//	                 crash: the aggregator skips the died window's tail)
//	agent → CELL × n  (seq, window, shard, optional obs and audit
//	                   sections, fbflow.Partial dataset section)
//	agent → FIN     (cells sent, optional agent report)
//
// The dataset section of a CELL frame is strict: the Reader enforces
// strictly increasing seqs, so a duplicated or replayed frame fails in
// the decoder itself, and a dataset section that does not decode kills
// the connection. The obs section (the cell's metric delta, opaque at
// this layer) and the audit section (the cell's determinism
// checkpoints) are best-effort: an aggregator that cannot decode one
// drops that section — the obs delta is lost, the audit checkpoints
// become an explicit ledger hole — and still merges the cell. FIN's
// report section (the agent's once-per-incarnation observability
// report) is best-effort the same way.
//
// Every length and count is bounds-checked against hard caps: corrupt
// input errors, it never panics and never drives an unbounded read.
//
// The codec is allocation-free in the steady state: Writer encodes into
// one reusable buffer, Reader decodes frames into another, and the
// Partial payload codec (fbflow.AppendBinary/DecodeBinary) reuses table
// capacity across frames.
package fbwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fbdcnet/internal/fbflow"
)

// Version identifies the protocol revision carried in HELLO; a peer
// speaking another revision fails the handshake.
const Version = 2

// Frame types.
const (
	TypeHello   = 0x01
	TypeWelcome = 0x02
	TypeCell    = 0x03
	TypeFin     = 0x04
)

// MaxFrameBytes caps one frame's payload: larger than any real window
// partial (a full large-preset window encodes to a few MiB) but small
// enough that a corrupt length prefix cannot drive an OOM allocation.
const MaxFrameBytes = 1 << 28

// helloWireLen is the fixed HELLO payload size after the type byte.
const helloWireLen = 2 + 4*5 + 8

// partialHeaderLen is the CELL header before the section flags: seq,
// window, shard.
const partialHeaderLen = 8 + 4 + 4

// cellHeaderLen is the full CELL prefix before the optional sections.
const cellHeaderLen = partialHeaderLen + 1

// CELL section flags.
const (
	flagObs   = 0x01
	flagAudit = 0x02
)

// Audit stage ids on the wire. AuditFleetCell is the cell's collected
// record stream; AuditMatrixSynth is the synthesized demand matrix that
// preceded the draw (matrix mode only).
const (
	AuditFleetCell   = 0x01
	AuditMatrixSynth = 0x02
)

// MaxCheckpoints caps one audit section: a cell carries at most its
// matrix-synth and fleet-collect checkpoints.
const MaxCheckpoints = 2

// checkpointWireLen is one audit-section entry: stage, sum, count.
const checkpointWireLen = 1 + 8 + 8

// Hello is the agent's opening announcement.
type Hello struct {
	Version     uint16
	AgentID     uint32
	Incarnation uint32 // 0 for the first process, +1 per restart
	ShardLo     uint32 // owned shard range [ShardLo, ShardHi)
	ShardHi     uint32
	Windows     uint32
	Check       uint64 // config fingerprint; both sides must agree
}

// PartialHeader addresses one CELL frame's cell.
type PartialHeader struct {
	Seq    uint64 // agent-local task index, strictly increasing
	Window uint32
	Shard  uint32
}

// Checkpoint is one audit-section entry: the sealed content hash and
// folded item count of one checkpoint stage of the frame's cell.
type Checkpoint struct {
	Stage byte
	Sum   uint64
	Count int64
}

// Sections are a CELL frame's optional sections as decoded by
// DecodeCell. Obs aliases the frame payload (and therefore the Reader's
// buffer). A section that is present but malformed is reported through
// its error and otherwise left empty: the caller drops and counts it.
type Sections struct {
	Obs      []byte // opaque obs delta; nil when absent
	Audit    [MaxCheckpoints]Checkpoint
	NAudit   int   // valid entries in Audit
	HasAudit bool  // the frame carried an audit section
	AuditErr error // non-nil: the audit section was malformed and dropped
}

// Writer frames and writes the agent side of the protocol. Not safe for
// concurrent use.
type Writer struct {
	w       *bufio.Writer
	buf     []byte // reusable frame assembly buffer
	written int64  // frame bytes written, for the comms-volume gauges
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// BytesWritten returns the total frame bytes flushed so far.
func (w *Writer) BytesWritten() int64 { return w.written }

// begin starts a frame in the reusable buffer: a 4-byte length
// placeholder, then the type byte.
func (w *Writer) begin(frameType byte) []byte {
	return append(w.buf[:0], 0, 0, 0, 0, frameType)
}

// flushFrame back-fills the length prefix and writes w.buf as one call.
func (w *Writer) flushFrame() error {
	n := len(w.buf) - 4 // type byte + payload
	if n > MaxFrameBytes {
		return fmt.Errorf("fbwire: frame of %d bytes exceeds cap %d", n, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(w.buf, uint32(n))
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.written += int64(len(w.buf))
	return w.w.Flush()
}

// WriteHello sends the opening HELLO frame.
func (w *Writer) WriteHello(h Hello) error {
	b := w.begin(TypeHello)
	b = binary.LittleEndian.AppendUint16(b, h.Version)
	b = binary.LittleEndian.AppendUint32(b, h.AgentID)
	b = binary.LittleEndian.AppendUint32(b, h.Incarnation)
	b = binary.LittleEndian.AppendUint32(b, h.ShardLo)
	b = binary.LittleEndian.AppendUint32(b, h.ShardHi)
	b = binary.LittleEndian.AppendUint32(b, h.Windows)
	b = binary.LittleEndian.AppendUint64(b, h.Check)
	w.buf = b
	return w.flushFrame()
}

// WriteWelcome sends the aggregator's WELCOME reply: the task index the
// agent must resume from.
func (w *Writer) WriteWelcome(resume uint64) error {
	w.buf = binary.LittleEndian.AppendUint64(w.begin(TypeWelcome), resume)
	return w.flushFrame()
}

// WritePartial sends one cell's partial as a CELL frame with no
// optional sections.
func (w *Writer) WritePartial(h PartialHeader, p *fbflow.Partial) error {
	return w.WriteCell(h, p, nil, nil)
}

// WriteCell sends one cell: the obs section when obs is non-empty, the
// audit section when aud is non-empty (at most MaxCheckpoints entries),
// then the partial. The encode reuses the writer's buffer, so the
// steady state allocates nothing.
func (w *Writer) WriteCell(h PartialHeader, p *fbflow.Partial, obs []byte, aud []Checkpoint) error {
	if len(aud) > MaxCheckpoints {
		return fmt.Errorf("fbwire: %d checkpoints exceed the cap of %d", len(aud), MaxCheckpoints)
	}
	var flags byte
	if len(obs) > 0 {
		flags |= flagObs
	}
	if len(aud) > 0 {
		flags |= flagAudit
	}
	b := w.begin(TypeCell)
	b = binary.LittleEndian.AppendUint64(b, h.Seq)
	b = binary.LittleEndian.AppendUint32(b, h.Window)
	b = binary.LittleEndian.AppendUint32(b, h.Shard)
	b = append(b, flags)
	if flags&flagObs != 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(obs)))
		b = append(b, obs...)
	}
	if flags&flagAudit != 0 {
		b = append(b, byte(len(aud)))
		for _, c := range aud {
			b = append(b, c.Stage)
			b = binary.LittleEndian.AppendUint64(b, c.Sum)
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Count))
		}
	}
	w.buf = p.AppendBinary(b)
	return w.flushFrame()
}

// WriteFin sends the closing FIN frame: the number of CELL frames this
// incarnation sent, then the optional agent report (omitted when empty).
func (w *Writer) WriteFin(sent uint64, report []byte) error {
	b := binary.LittleEndian.AppendUint64(w.begin(TypeFin), sent)
	w.buf = append(b, report...)
	return w.flushFrame()
}

// Frame is one decoded frame. Payload aliases the Reader's internal
// buffer and is valid only until the next call to Next.
type Frame struct {
	Type    byte
	Payload []byte
}

// Reader reads and validates frames from one connection. Not safe for
// concurrent use.
type Reader struct {
	r       *bufio.Reader
	buf     []byte
	pfx     [4]byte // length-prefix scratch; a field so ReadFull doesn't heap-escape it
	read    int64
	seenSeq bool
	lastSeq uint64 // last CELL seq, valid when seenSeq
}

// NewReader returns a Reader framing off r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// BytesRead returns the total frame bytes consumed so far.
func (r *Reader) BytesRead() int64 { return r.read }

// Next reads one frame. io.EOF is returned only at a clean frame
// boundary; a partial frame yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.pfx[:1]); err != nil {
		return Frame{}, err // clean EOF possible here only
	}
	if _, err := io.ReadFull(r.r, r.pfx[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(r.pfx[:]))
	if n < 1 {
		return Frame{}, fmt.Errorf("fbwire: empty frame")
	}
	if n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("fbwire: frame length %d exceeds cap %d", n, MaxFrameBytes)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n, n+n/2)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	r.read += int64(4 + n)
	f := Frame{Type: r.buf[0], Payload: r.buf[1:]}
	switch f.Type {
	case TypeHello, TypeWelcome, TypeFin:
	case TypeCell:
		if len(f.Payload) < cellHeaderLen {
			return Frame{}, fmt.Errorf("fbwire: cell frame header truncated (%d bytes)", len(f.Payload))
		}
		seq := binary.LittleEndian.Uint64(f.Payload)
		if r.seenSeq && seq <= r.lastSeq {
			return Frame{}, fmt.Errorf("fbwire: cell frame seq %d duplicates or reorders (last %d)", seq, r.lastSeq)
		}
		r.seenSeq, r.lastSeq = true, seq
	default:
		return Frame{}, fmt.Errorf("fbwire: unknown frame type %#x", f.Type)
	}
	return f, nil
}

// ParseHello decodes a HELLO payload.
func ParseHello(payload []byte) (Hello, error) {
	if len(payload) != helloWireLen {
		return Hello{}, fmt.Errorf("fbwire: hello payload is %d bytes, want %d", len(payload), helloWireLen)
	}
	h := Hello{
		Version:     binary.LittleEndian.Uint16(payload),
		AgentID:     binary.LittleEndian.Uint32(payload[2:]),
		Incarnation: binary.LittleEndian.Uint32(payload[6:]),
		ShardLo:     binary.LittleEndian.Uint32(payload[10:]),
		ShardHi:     binary.LittleEndian.Uint32(payload[14:]),
		Windows:     binary.LittleEndian.Uint32(payload[18:]),
		Check:       binary.LittleEndian.Uint64(payload[22:]),
	}
	if h.Version != Version {
		return Hello{}, fmt.Errorf("fbwire: protocol version %d, want %d", h.Version, Version)
	}
	if h.ShardHi < h.ShardLo {
		return Hello{}, fmt.Errorf("fbwire: hello shard range [%d, %d) is inverted", h.ShardLo, h.ShardHi)
	}
	return h, nil
}

// ParseWelcome decodes a WELCOME payload.
func ParseWelcome(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("fbwire: welcome payload is %d bytes, want 8", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// ParseFin decodes a FIN payload: the sent count and the report section
// (nil when absent; it aliases the payload).
func ParseFin(payload []byte) (sent uint64, report []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("fbwire: fin payload is %d bytes, want at least 8", len(payload))
	}
	if len(payload) > 8 {
		report = payload[8:]
	}
	return binary.LittleEndian.Uint64(payload), report, nil
}

// DecodePartial decodes a CELL payload's header and dataset section into
// a reusable Partial, skipping the optional sections. The payload must
// come from a Frame of TypeCell.
func DecodePartial(payload []byte, into *fbflow.Partial) (PartialHeader, error) {
	return DecodeCell(payload, into, nil)
}

// DecodeCell decodes a CELL payload: the header and dataset section into
// into, strictly — any error means the frame is unusable — and, when sec
// is non-nil, the optional sections into sec, best-effort.
func DecodeCell(payload []byte, into *fbflow.Partial, sec *Sections) (PartialHeader, error) {
	if len(payload) < cellHeaderLen {
		return PartialHeader{}, fmt.Errorf("fbwire: cell frame header truncated (%d bytes)", len(payload))
	}
	h := PartialHeader{
		Seq:    binary.LittleEndian.Uint64(payload),
		Window: binary.LittleEndian.Uint32(payload[8:]),
		Shard:  binary.LittleEndian.Uint32(payload[12:]),
	}
	flags := payload[partialHeaderLen]
	if flags&^(flagObs|flagAudit) != 0 {
		return PartialHeader{}, fmt.Errorf("fbwire: cell frame has unknown section flags %#x", flags)
	}
	rest := payload[cellHeaderLen:]
	if sec != nil {
		*sec = Sections{}
	}
	if flags&flagObs != 0 {
		if len(rest) < 4 {
			return PartialHeader{}, errors.New("fbwire: cell obs section length truncated")
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-4) {
			return PartialHeader{}, fmt.Errorf("fbwire: cell obs section of %d bytes overruns the frame", n)
		}
		if sec != nil {
			sec.Obs = rest[4 : 4+n]
		}
		rest = rest[4+n:]
	}
	if flags&flagAudit != 0 {
		if len(rest) < 1 {
			return PartialHeader{}, errors.New("fbwire: cell audit section count truncated")
		}
		size := 1 + int(rest[0])*checkpointWireLen
		if size > len(rest) {
			return PartialHeader{}, fmt.Errorf("fbwire: cell audit section of %d bytes overruns the frame", size)
		}
		if sec != nil {
			sec.HasAudit = true
			sec.NAudit, sec.AuditErr = parseAudit(rest[:size], &sec.Audit)
		}
		rest = rest[size:]
	}
	if err := into.DecodeBinary(rest); err != nil {
		return PartialHeader{}, err
	}
	return h, nil
}

// parseAudit decodes an audit section (count byte, then entries) into
// out. A malformed section yields zero entries and an error.
func parseAudit(b []byte, out *[MaxCheckpoints]Checkpoint) (int, error) {
	n := int(b[0])
	if n > MaxCheckpoints {
		return 0, fmt.Errorf("fbwire: audit section declares %d checkpoints (cap %d)", n, MaxCheckpoints)
	}
	b = b[1:]
	for i := 0; i < n; i++ {
		c := Checkpoint{
			Stage: b[0],
			Sum:   binary.LittleEndian.Uint64(b[1:]),
			Count: int64(binary.LittleEndian.Uint64(b[9:])),
		}
		if c.Stage != AuditFleetCell && c.Stage != AuditMatrixSynth {
			return 0, fmt.Errorf("fbwire: unknown audit stage %#x", c.Stage)
		}
		if c.Count < 0 {
			return 0, fmt.Errorf("fbwire: audit count %d is negative", c.Count)
		}
		out[i] = c
		b = b[checkpointWireLen:]
	}
	return n, nil
}
