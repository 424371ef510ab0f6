package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"mdegst/internal/graph"
)

// Byte-exact checkpoint/resume (DESIGN.md §8). At an inter-round barrier
// of the unit-delay tiers the complete in-flight state of a run is three
// flat things: the per-node protocol states, the pending delivery slab of
// the next round (WireMsg records in global send order) and the report
// counters accumulated so far. A Checkpoint captures exactly those, and
// the versioned file form makes long runs restartable: resuming yields a
// Report, delivery trace and final protocol states bitwise-identical to
// the uninterrupted run.
//
// Opcode numbers are process-local (package init order), so the file
// carries an explicit opcode table of kind strings; the reader translates
// back through the registry and fails with a typed error on kinds the
// running binary does not know.

// StateCodec is implemented by protocols whose node state can be frozen at
// a round barrier. Encode and Decode must mirror each other exactly; the
// factory-supplied construction state (identity, neighbour list, static
// configuration) need not be encoded — Resume rebuilds instances through
// the same Factory before decoding.
type StateCodec interface {
	EncodeState(e *StateEncoder)
	DecodeState(d *StateDecoder) error
}

// CheckpointSpec arms barrier checkpointing on an engine in one of two
// modes. Freeze mode (Every == 0): the run stops at the barrier after
// round Round (0 = right after Init) and writes the frozen run to W,
// returning ErrCheckpointed; if the run quiesces before reaching the
// barrier it completes normally and no checkpoint is written. Periodic
// mode (Every > 0): at every barrier whose round is a positive multiple of
// Every the engine commits a checkpoint through Sink and keeps running —
// there is always a recent recovery point, and the run finishes normally.
// Round is ignored in periodic mode. A resumed run never re-commits the
// barrier it resumed from; its later cadence barriers produce files
// byte-identical to an uninterrupted run's.
type CheckpointSpec struct {
	Round int64
	W     io.Writer
	// Every switches to the periodic cadence when > 0.
	Every int64
	// Sink receives periodic commits (and, when set, takes precedence over
	// W for stop-requested commits on the distributed engine).
	Sink CheckpointSink
}

// CheckpointSink durably stores periodic checkpoints. Commit must make the
// checkpoint either fully visible or not at all — a crash mid-commit must
// never leave a recovery point that parses but lies (CheckpointDir uses
// write-to-temp + rename). write streams the checkpoint's byte form.
type CheckpointSink interface {
	Commit(round int64, write func(io.Writer) error) error
}

// ErrCheckpointed is returned by a run that stopped at its armed barrier
// after writing the checkpoint. It is a clean stop, not a failure.
var ErrCheckpointed = errors.New("sim: run checkpointed at its round barrier")

// ErrStopped is returned by a run that honoured a graceful stop request at
// a round barrier (the distributed engine's cluster-wide stop agreement).
// Like ErrCheckpointed it is a clean stop, not a failure; a final
// checkpoint was committed first when one was armed.
var ErrStopped = errors.New("sim: run stopped at a round barrier on request")

// errCheckpointTier rejects checkpoint requests outside the unit-delay
// round tiers, the only schedules with barriers to cut at.
var errCheckpointTier = errors.New("sim: checkpoint/resume requires the unit-delay round tier")

// CheckpointError is the typed error for malformed or mismatched
// checkpoint files.
type CheckpointError struct{ Reason string }

func (e *CheckpointError) Error() string { return "sim: checkpoint: " + e.Reason }

// ResumableEngine is implemented by engines that can continue a
// checkpointed run over a compiled snapshot. Resume returns the final
// states as Run does: dense-indexed and owned by the caller.
type ResumableEngine interface {
	Engine
	Resume(c *graph.CSR, f Factory, ck *Checkpoint) ([]Protocol, *Report, error)
}

// PendingDelivery is one in-flight message of the checkpointed barrier:
// dense endpoints plus the wire record, in global send order.
type PendingDelivery struct {
	From, To int32
	Msg      WireMsg
}

// KindRoundCount is one (opcode, round) counter of the frozen report.
type KindRoundCount struct {
	Op    Op
	Round int
	Count int64
}

// SentByCount is one per-node send counter of the frozen report.
type SentByCount struct {
	Node  NodeID
	Count int64
}

// Checkpoint is a run frozen at a round barrier.
type Checkpoint struct {
	// Round is the barrier: all deliveries of rounds 1..Round happened,
	// Pending holds round Round+1.
	Round int64
	// N and HalfEdges fingerprint the snapshot the run executed over;
	// resume validates them.
	N, HalfEdges int
	// Frozen report counters.
	Messages, Words, CausalDepth int64
	MaxWords                     int
	KindRounds                   []KindRoundCount
	SentBy                       []SentByCount
	// States holds one encoded protocol state per dense node index.
	States [][]byte
	// Pending is the next round's delivery slab in global send order.
	Pending []PendingDelivery

	// tab is the opcode translation table the state blobs were encoded
	// with (captures build it eagerly so blobs and file share indices);
	// opDec is the reverse translation handed to state decoders.
	tab   *ckptOpTable
	opDec func(uint64) (Op, error)
}

// captureReport freezes r's counters into ck, sorting the map-backed
// breakdowns so the byte form is deterministic.
func (ck *Checkpoint) captureReport(r *Report) {
	r.syncHot() // fold any recordFast accumulators; the maps are read below
	ck.Messages = r.Messages
	ck.Words = r.Words
	ck.MaxWords = r.MaxWords
	ck.CausalDepth = r.CausalDepth
	ck.KindRounds = ck.KindRounds[:0]
	for k, v := range r.kindRound {
		ck.KindRounds = append(ck.KindRounds, KindRoundCount{Op: k.op, Round: k.round, Count: v})
	}
	sort.Slice(ck.KindRounds, func(i, j int) bool {
		a, b := ck.KindRounds[i], ck.KindRounds[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Round < b.Round
	})
	ck.SentBy = ck.SentBy[:0]
	for n, v := range r.SentBy {
		ck.SentBy = append(ck.SentBy, SentByCount{Node: n, Count: v})
	}
	sort.Slice(ck.SentBy, func(i, j int) bool { return ck.SentBy[i].Node < ck.SentBy[j].Node })
}

// restoreReport loads ck's counters into a fresh report.
func (ck *Checkpoint) restoreReport(r *Report) {
	r.Messages = ck.Messages
	r.Words = ck.Words
	r.MaxWords = ck.MaxWords
	r.CausalDepth = ck.CausalDepth
	for _, kr := range ck.KindRounds {
		r.kindRound[kindRoundKey{op: kr.Op, round: kr.Round}] = kr.Count
	}
	for _, s := range ck.SentBy {
		r.SentBy[s.Node] = s.Count
	}
}

// encodeStates freezes every protocol's state; all must implement
// StateCodec. The checkpoint's opcode table is created here so state
// blobs and the file body share one numbering, and the reverse mapping is
// bound for in-memory resumes that skip the file round trip.
func (ck *Checkpoint) encodeStates(protos []Protocol) error {
	if ck.tab == nil {
		ck.tab = newCkptOpTable()
		ck.opDec = ck.tab.dec
	}
	ck.States = make([][]byte, len(protos))
	var enc StateEncoder
	for i, p := range protos {
		sc, ok := p.(StateCodec)
		if !ok {
			return &CheckpointError{Reason: fmt.Sprintf("protocol %T does not implement StateCodec", p)}
		}
		enc = StateEncoder{opEnc: ck.tab.enc}
		sc.EncodeState(&enc)
		ck.States[i] = enc.buf
	}
	return nil
}

// decodeStates restores every protocol's state from ck.
func (ck *Checkpoint) decodeStates(protos []Protocol) error {
	if len(ck.States) != len(protos) {
		return &CheckpointError{Reason: fmt.Sprintf("%d states for %d nodes", len(ck.States), len(protos))}
	}
	for i, p := range protos {
		sc, ok := p.(StateCodec)
		if !ok {
			return &CheckpointError{Reason: fmt.Sprintf("protocol %T does not implement StateCodec", p)}
		}
		dec := StateDecoder{buf: ck.States[i], opDec: ck.opDec}
		if err := sc.DecodeState(&dec); err != nil {
			return fmt.Errorf("sim: checkpoint: node state %d: %w", i, err)
		}
		if dec.err != nil {
			return fmt.Errorf("sim: checkpoint: node state %d: %w", i, dec.err)
		}
		if dec.at != len(dec.buf) {
			return &CheckpointError{Reason: fmt.Sprintf("node state %d: %d trailing bytes", i, len(dec.buf)-dec.at)}
		}
	}
	return nil
}

// validateAgainst checks the snapshot fingerprint before resuming.
func (ck *Checkpoint) validateAgainst(c *graph.CSR) error {
	if ck.N != c.N() || ck.HalfEdges != c.HalfEdges() {
		return &CheckpointError{Reason: fmt.Sprintf(
			"snapshot mismatch: checkpoint is for n=%d halfEdges=%d, graph has n=%d halfEdges=%d",
			ck.N, ck.HalfEdges, c.N(), c.HalfEdges())}
	}
	for i, p := range ck.Pending {
		if p.From < 0 || int(p.From) >= ck.N || p.To < 0 || int(p.To) >= ck.N {
			return &CheckpointError{Reason: fmt.Sprintf("pending delivery %d endpoints out of range", i)}
		}
	}
	return nil
}

// --- file form ----------------------------------------------------------
//
// magic | version | body | crc32(body). The body is varint-packed:
//
//	opTable   count, then per opcode: kind string (len-prefixed)
//	header    round, n, halfEdges
//	report    messages, words, maxWords, causalDepth,
//	          kindRounds (count, then fileOp/round/count triples),
//	          sentBy (count, then node/count pairs)
//	states    count, then per node: len-prefixed opaque blob
//	pending   count, then per delivery: from, to, wire record
//
// Every opcode in the file (pending slab, kindRound counters and any
// WireMsg inside a state blob) is the file-local table index, so the file
// survives registry renumbering across binaries.

var ckptMagic = [8]byte{'M', 'D', 'G', 'S', 'T', 'C', 'K', '1'}

// CheckpointVersion is the current file format version.
const CheckpointVersion = 1

// ckptOpTable maps process opcodes to file-local indices on the way out.
// Index 0 is reserved (OpNone), mirroring the registry.
type ckptOpTable struct {
	fileOf []uint64 // process Op -> file index + 1 (0 = unassigned)
	kinds  []string // file index -> kind; kinds[0] is unused
}

func newCkptOpTable() *ckptOpTable {
	return &ckptOpTable{fileOf: make([]uint64, NumOps()), kinds: []string{""}}
}

func (t *ckptOpTable) enc(op Op) uint64 {
	if op == OpNone || int(op) >= len(t.fileOf) {
		return 0
	}
	if t.fileOf[op] == 0 {
		t.kinds = append(t.kinds, opKind(op))
		t.fileOf[op] = uint64(len(t.kinds) - 1)
	}
	return t.fileOf[op]
}

// dec translates a file-local index back to the registry opcode.
func (t *ckptOpTable) dec(fileOp uint64) (Op, error) {
	if fileOp == 0 || fileOp >= uint64(len(t.kinds)) {
		return OpNone, &CheckpointError{Reason: fmt.Sprintf("opcode %d outside the file's table", fileOp)}
	}
	op, ok := OpByKind(t.kinds[fileOp])
	if !ok {
		return OpNone, &CheckpointError{Reason: fmt.Sprintf("unknown message kind %q", t.kinds[fileOp])}
	}
	return op, nil
}

// Write encodes ck in the versioned byte form. Output is deterministic:
// equal checkpoints produce equal bytes.
func (ck *Checkpoint) Write(w io.Writer) error {
	// Two passes: the opcode table is built while encoding the body, but
	// must precede it in the file, so encode body first into its own buf.
	// The table is shared with encodeStates — state blobs already embed
	// its indices.
	if ck.tab == nil {
		ck.tab = newCkptOpTable()
		ck.opDec = ck.tab.dec
	}
	tab := ck.tab
	var body []byte
	body = appendVarint(body, ck.Round)
	body = appendUvarint(body, uint64(ck.N))
	body = appendUvarint(body, uint64(ck.HalfEdges))
	body = appendVarint(body, ck.Messages)
	body = appendVarint(body, ck.Words)
	body = appendUvarint(body, uint64(ck.MaxWords))
	body = appendVarint(body, ck.CausalDepth)
	body = appendUvarint(body, uint64(len(ck.KindRounds)))
	for _, kr := range ck.KindRounds {
		body = appendUvarint(body, tab.enc(kr.Op))
		body = appendVarint(body, int64(kr.Round))
		body = appendVarint(body, kr.Count)
	}
	body = appendUvarint(body, uint64(len(ck.SentBy)))
	for _, s := range ck.SentBy {
		body = appendVarint(body, int64(s.Node))
		body = appendVarint(body, s.Count)
	}
	body = appendUvarint(body, uint64(len(ck.States)))
	for _, st := range ck.States {
		body = appendUvarint(body, uint64(len(st)))
		body = append(body, st...)
	}
	body = appendUvarint(body, uint64(len(ck.Pending)))
	for _, p := range ck.Pending {
		body = appendUvarint(body, uint64(p.From))
		body = appendUvarint(body, uint64(p.To))
		body = AppendWire(body, p.Msg, tab.enc)
	}

	var out []byte
	out = append(out, ckptMagic[:]...)
	out = appendUvarint(out, CheckpointVersion)
	out = appendUvarint(out, uint64(len(tab.kinds)-1))
	for _, k := range tab.kinds[1:] {
		out = appendUvarint(out, uint64(len(k)))
		out = append(out, k...)
	}
	out = appendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	_, err := w.Write(out)
	return err
}

// ckptReader is a cursor over the checkpoint body with typed-error
// truncation handling.
type ckptReader struct {
	buf []byte
	at  int
}

func (r *ckptReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.at:])
	if n <= 0 {
		return 0, &CheckpointError{Reason: "truncated file"}
	}
	r.at += n
	return v, nil
}

func (r *ckptReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.at:])
	if n <= 0 {
		return 0, &CheckpointError{Reason: "truncated file"}
	}
	r.at += n
	return v, nil
}

func (r *ckptReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.at) {
		return nil, &CheckpointError{Reason: "truncated file"}
	}
	b := r.buf[r.at : r.at+int(n)]
	r.at += int(n)
	return b, nil
}

// count reads an element count and bounds it by the remaining body bytes
// (each element occupies at least minBytes), so a crafted file cannot make
// the reader allocate unbounded slices before parsing the entries — a
// malformed checkpoint must fail typed, never take the process down.
func (r *ckptReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.at)/uint64(minBytes) {
		return 0, &CheckpointError{Reason: fmt.Sprintf("element count %d exceeds the file's remaining %d bytes", v, len(r.buf)-r.at)}
	}
	return int(v), nil
}

// ReadCheckpoint decodes a checkpoint file, translating its opcode table
// through the registry. Unknown versions, corrupted bytes (CRC mismatch)
// and unregistered kinds return typed *CheckpointError values.
func ReadCheckpoint(rd io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(ckptMagic)+4 {
		return nil, &CheckpointError{Reason: "file too short"}
	}
	if string(raw[:len(ckptMagic)]) != string(ckptMagic[:]) {
		return nil, &CheckpointError{Reason: "bad magic: not a checkpoint file"}
	}
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(raw[:len(raw)-4]) != sum {
		return nil, &CheckpointError{Reason: "CRC mismatch: file corrupted"}
	}
	r := &ckptReader{buf: raw[:len(raw)-4], at: len(ckptMagic)}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version != CheckpointVersion {
		return nil, &CheckpointError{Reason: fmt.Sprintf("unsupported version %d (want %d)", version, CheckpointVersion)}
	}
	nKinds, err := r.count(1)
	if err != nil {
		return nil, err
	}
	// File index -> registry opcode; index 0 stays OpNone. The table is
	// also rebuilt as-is so re-writing the checkpoint keeps the numbering
	// the state blobs were encoded with.
	ops := make([]Op, nKinds+1)
	tab := &ckptOpTable{fileOf: make([]uint64, NumOps()), kinds: make([]string, 1, nKinds+1)}
	for i := uint64(1); i <= uint64(nKinds); i++ {
		klen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		kb, err := r.bytes(klen)
		if err != nil {
			return nil, err
		}
		op, ok := OpByKind(string(kb))
		if !ok {
			return nil, &CheckpointError{Reason: fmt.Sprintf("unknown message kind %q (protocol not linked in?)", kb)}
		}
		ops[i] = op
		tab.kinds = append(tab.kinds, string(kb))
		tab.fileOf[op] = i
	}
	decOp := func(fileOp uint64) (Op, error) {
		if fileOp == 0 || fileOp >= uint64(len(ops)) {
			return OpNone, &CheckpointError{Reason: fmt.Sprintf("opcode %d outside the file's table", fileOp)}
		}
		return ops[fileOp], nil
	}
	bodyLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	body, err := r.bytes(bodyLen)
	if err != nil {
		return nil, err
	}
	if r.at != len(r.buf) {
		return nil, &CheckpointError{Reason: "trailing bytes after body"}
	}
	r = &ckptReader{buf: body}

	ck := &Checkpoint{}
	if ck.Round, err = r.varint(); err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ck.N = int(n)
	he, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ck.HalfEdges = int(he)
	if ck.Messages, err = r.varint(); err != nil {
		return nil, err
	}
	if ck.Words, err = r.varint(); err != nil {
		return nil, err
	}
	mw, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ck.MaxWords = int(mw)
	if ck.CausalDepth, err = r.varint(); err != nil {
		return nil, err
	}
	nkr, err := r.count(3)
	if err != nil {
		return nil, err
	}
	ck.KindRounds = make([]KindRoundCount, nkr)
	for i := range ck.KindRounds {
		fileOp, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		op, err := decOp(fileOp)
		if err != nil {
			return nil, err
		}
		round, err := r.varint()
		if err != nil {
			return nil, err
		}
		count, err := r.varint()
		if err != nil {
			return nil, err
		}
		ck.KindRounds[i] = KindRoundCount{Op: op, Round: int(round), Count: count}
	}
	nsb, err := r.count(2)
	if err != nil {
		return nil, err
	}
	ck.SentBy = make([]SentByCount, nsb)
	for i := range ck.SentBy {
		node, err := r.varint()
		if err != nil {
			return nil, err
		}
		count, err := r.varint()
		if err != nil {
			return nil, err
		}
		ck.SentBy[i] = SentByCount{Node: NodeID(node), Count: count}
	}
	nStates, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if nStates != ck.N {
		return nil, &CheckpointError{Reason: fmt.Sprintf("%d states for n=%d", nStates, ck.N)}
	}
	ck.States = make([][]byte, nStates)
	for i := range ck.States {
		slen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(slen)
		if err != nil {
			return nil, err
		}
		// State blobs embed file-local opcodes; they stay opaque here and
		// the decoder translates through ck.opDec (see StateDecoder.Msg).
		ck.States[i] = b
	}
	nPend, err := r.count(4)
	if err != nil {
		return nil, err
	}
	ck.Pending = make([]PendingDelivery, nPend)
	for i := range ck.Pending {
		from, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		to, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		m, used, err := DecodeWire(r.buf[r.at:], decOp)
		if err != nil {
			return nil, err
		}
		r.at += used
		ck.Pending[i] = PendingDelivery{From: int32(from), To: int32(to), Msg: m}
	}
	if r.at != len(r.buf) {
		return nil, &CheckpointError{Reason: "trailing bytes in body"}
	}
	ck.tab = tab
	ck.opDec = decOp
	return ck, nil
}

// --- state codec --------------------------------------------------------

// StateEncoder serialises one node's protocol state as a varint word
// stream. Encode and decode call sequences must mirror exactly.
type StateEncoder struct {
	buf   []byte
	opEnc func(Op) uint64
}

// Int appends a signed integer (identities, counters, enums).
func (e *StateEncoder) Int(v int64) { e.buf = appendVarint(e.buf, v) }

// Bool appends a flag.
func (e *StateEncoder) Bool(b bool) {
	var v int64
	if b {
		v = 1
	}
	e.Int(v)
}

// ID appends a node identity.
func (e *StateEncoder) ID(v NodeID) { e.Int(int64(v)) }

// IDs appends a length-prefixed identity list.
func (e *StateEncoder) IDs(vs []NodeID) {
	e.Int(int64(len(vs)))
	for _, v := range vs {
		e.ID(v)
	}
}

// Msg appends a wire record (a deferred message, say), translating its
// opcode to the checkpoint file's table when the encoder is bound to one.
func (e *StateEncoder) Msg(m WireMsg) { e.buf = AppendWire(e.buf, m, e.opEnc) }

// StateDecoder mirrors StateEncoder. Errors are sticky: after the first
// malformed read every further value is zero and Err reports the failure
// (checked by the engine after DecodeState returns).
type StateDecoder struct {
	buf   []byte
	at    int
	err   error
	opDec func(uint64) (Op, error)
}

// Err returns the first decoding error.
func (d *StateDecoder) Err() error { return d.err }

func (d *StateDecoder) fail() int64 {
	if d.err == nil {
		d.err = &CheckpointError{Reason: "truncated node state"}
	}
	return 0
}

// Int reads a signed integer.
func (d *StateDecoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.at:])
	if n <= 0 {
		return d.fail()
	}
	d.at += n
	return v
}

// Bool reads a flag.
func (d *StateDecoder) Bool() bool { return d.Int() != 0 }

// ID reads a node identity.
func (d *StateDecoder) ID() NodeID { return NodeID(d.Int()) }

// IDs reads a length-prefixed identity list.
func (d *StateDecoder) IDs() []NodeID {
	n := d.Int()
	if d.err != nil || n < 0 || n > int64(len(d.buf)-d.at) {
		d.fail()
		return nil
	}
	vs := make([]NodeID, n)
	for i := range vs {
		vs[i] = d.ID()
	}
	return vs
}

// Msg reads a wire record, translating the file-local opcode back through
// the registry when bound to a checkpoint file.
func (d *StateDecoder) Msg() WireMsg {
	if d.err != nil {
		return WireMsg{}
	}
	m, used, err := DecodeWire(d.buf[d.at:], d.opDec)
	if err != nil {
		d.err = err
		return WireMsg{}
	}
	d.at += used
	return m
}
