// Record once, replay per layout.
//
// A cell runs one program many times under fresh layouts, and a layout
// changes where code and data live, never what the program computes. So a
// compiled run can record the few facts that steer its machine work — each
// conditional branch's direction, and each operand that feeds an address —
// and a later run of the same module can replay them under its own layout.
// A replay walks the same lowered blocks through the same machine, runtime
// and layout calls (exec and call serve both modes); it differs from a full
// run in two places only: in place of a segment's straight-line ops it runs
// the segment's memory events (replayOps), and it takes branch directions
// from the trace. It builds no register files, globals or heap-object
// storage, and computes no register value.
//
// The checks that depend only on values — bounds, use after free, invalid
// pointers, the heap-pointer sink check — ran in the recorded run and cannot
// come out differently. The layout-dependent ones — stack overflow under
// pads, allocator errors — and the step budget and interrupt poll run in the
// replay itself, so a replay fails wherever a full run of its seed would.
package interp

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/ir"
)

// operandKind classes the recorded operands. Each is stored as its
// difference from the previous operand of the same kind, except a heap
// access's byte offset, which is stored as its difference from the last
// recorded offset into the same object (heapObject.traceOff): interleaved
// sweeps over several objects then cost a byte an access.
type operandKind uint8

const (
	opGlobalOff  operandKind = iota // dynamic global access: byte offset
	opStackOff                      // dynamic stack-slot access: byte offset
	opHeapHandle                    // heap access: object handle
	opFreeHandle                    // free: object handle
	numOperandKinds
)

// traceChunkSize is the unit a trace grows by.
const traceChunkSize = 64 << 10

// TraceCap bounds the bytes a recording holds, in whole chunks, all
// streams together; a run whose trace would outgrow it leaves no
// recording, and the runs that would have replayed it run in full.
const TraceCap = 16 << 20

// A trace has three streams. The operand stream holds one byte per
// operand: its difference from the previous operand of its kind, or escOp
// when the difference does not fit a byte, in which case the escape stream
// holds it as a zigzag varint. The branch stream holds directions, 64 to a
// little-endian word. exec makes room for a whole block before running it
// (cvm.short and cvm.reserve): the operand stream starts a new chunk
// wherever the rest of the current one cannot take the block's operands,
// the same in the writer and the reader, so neither the per-operand nor the
// per-branch path checks or calls.
const escOp = -128

// stageEsc and stageWords size the buffers in which a recording stages its
// escapes and branch directions, and a replay its decoded escapes, between
// passes over the chunks.
const (
	stageEsc   = 1024
	stageWords = 64
)

type traceChunk [traceChunkSize]byte

// traceChunks recycles chunks across traces, and so across cells.
var traceChunks = sync.Pool{New: func() any { return new(traceChunk) }}

// tstream is one chunked byte stream of a trace; n is the write position
// in cur, the last chunk. A compressed stream keeps each chunk in z, as a
// flate stream of the bytes written to it (see deflate), and cur is its
// one raw chunk while it records; chunks stays empty.
type tstream struct {
	chunks []*traceChunk
	cur    *traceChunk
	n      int
	z      [][]byte
}

// count returns how many chunks the stream holds.
func (s *tstream) count() int { return len(s.chunks) + len(s.z) }

// escStart bounds where a writer starts an escape's encoding in a chunk;
// a reader takes the next chunk at exactly the same points.
const escStart = traceChunkSize - binary.MaxVarintLen64

// Trace is what one compiled run leaves for later runs of its module to
// replay: its branch directions, its address operands and its output. It is
// bound to the module it was recorded from. A run records into an empty
// trace (Options.Capture) and a later run replays it (Options.Replay); a
// recording is kept only if its run finishes without an error and its
// trace stays within TraceCap. Replays only read a trace, so any number may
// share one.
//
// A trace from NewTrace holds its chunks raw. A trace from ClaimTrace
// records for its module and is compressed: each stream compresses a chunk
// when the writer moves past it and seal compresses the last one, so the
// recording holds one raw chunk a stream, and a replay inflates one chunk a
// stream at a time. Once sealed the module keeps it for as long as the
// module lives.
type Trace struct {
	lm       *lowModule
	output   uint64
	ops      tstream
	esc      tstream
	bits     tstream
	nEsc     int // escapes
	nBits    int // branch directions
	done     int // bytes in raw chunks before each stream's current one
	zBytes   int // bytes in compressed chunks
	chunks   int
	over     bool // outgrew TraceCap: the recording is lost
	sealed   bool
	compress bool
	// claim is the module a compressed trace records for, until the
	// recording is sealed or released; kept marks the module's trace.
	claim *lowModule
	kept  bool
}

// NewTrace returns an empty trace for a compiled run to record into.
func NewTrace() *Trace { return &Trace{} }

// KeptTrace returns the trace m keeps for its compiled runs to replay (see
// ClaimTrace), or nil if it keeps none.
func KeptTrace(m *ir.Module) *Trace { return lowered(m).kept.Load() }

// ClaimTrace returns an empty compressed trace for one compiled run of m to
// record for the module, or nil if m keeps a trace already, a recording for
// it is in flight, or one outgrew TraceCap, which marks m for good. The
// recording becomes m's kept trace (KeptTrace) when its run completes; a
// run that fails or never starts leaves no mark, and releasing its trace
// frees the claim. A kept trace lives as long as its module.
func ClaimTrace(m *ir.Module) *Trace {
	lm := lowered(m)
	if lm.kept.Load() != nil || lm.overCap.Load() || lm.maxOperands > traceChunkSize ||
		!lm.claimed.CompareAndSwap(false, true) {
		return nil
	}
	// A recording may have been kept, or marked, between the loads and
	// the claim.
	if lm.kept.Load() != nil || lm.overCap.Load() {
		lm.claimed.Store(false)
		return nil
	}
	return &Trace{compress: true, claim: lm}
}

// Replayable reports whether the trace holds a complete recording.
func (t *Trace) Replayable() bool { return t.sealed }

// Bytes returns the size of the recording's encoding: compressed, for a
// compressed trace.
func (t *Trace) Bytes() int {
	switch {
	case !t.sealed:
		return 0
	case t.compress:
		return t.zBytes
	}
	return t.done + t.ops.n + t.esc.n + t.bits.n
}

// Release returns the trace's chunks for reuse and empties it, and frees
// its claim on its module if it holds one. A module's kept trace lives as
// long as the module: releasing it does nothing.
func (t *Trace) Release() {
	if t.kept {
		return
	}
	for _, s := range []*tstream{&t.ops, &t.esc, &t.bits} {
		for _, c := range s.chunks {
			traceChunks.Put(c)
		}
		if t.compress && s.cur != nil {
			traceChunks.Put(s.cur)
		}
	}
	if t.claim != nil {
		t.claim.claimed.Store(false)
	}
	*t = Trace{}
}

// grow gives s a fresh chunk, or, once the trace is at its cap, marks the
// recording lost and keeps the writer on the chunk it has. A compressed
// stream compresses the chunk it leaves and reuses it.
func (t *Trace) grow(s *tstream) {
	if t.chunks*traceChunkSize >= TraceCap && s.cur != nil {
		t.over = true
		s.n = 0
		return
	}
	switch {
	case t.compress && s.cur != nil:
		t.deflate(s)
	default:
		if s.cur != nil {
			t.done += s.n
		}
		c := traceChunks.Get().(*traceChunk)
		if !t.compress {
			s.chunks = append(s.chunks, c)
		}
		s.cur = c
	}
	s.n = 0
	t.chunks++
}

// deflater is a pooled compressor and its output buffer: a flate writer
// holds about 1.2 MB of tables.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed)
	return &deflater{zw: zw}
}}

// deflate appends the s.n bytes written to s's current chunk to s.z:
// compressed, then their CRC-32 seeded with the chunk's index, so that a
// replay that inflates other bytes, or a chunk in another place, fails,
// and then their count. A reader takes the next chunk where the writer
// did, so it never reads past the bytes written to a chunk.
func (t *Trace) deflate(s *tstream) {
	raw := s.cur[:s.n]
	d := deflaters.Get().(*deflater)
	d.buf.Reset()
	d.zw.Reset(&d.buf)
	d.zw.Write(raw)
	d.zw.Close()
	z := make([]byte, d.buf.Len()+8)
	n := copy(z, d.buf.Bytes())
	deflaters.Put(d)
	binary.LittleEndian.PutUint32(z[n:], crc32.Update(uint32(len(s.z)), crc32.IEEETable, raw))
	binary.LittleEndian.PutUint32(z[n+4:], uint32(len(raw)))
	s.z = append(s.z, z)
	t.zBytes += len(z)
}

// inflater is a replay's decompressor for a compressed trace. It lives
// apart from the cursors that the per-operand and per-branch reads use.
type inflater struct {
	br  bytes.Reader
	fr  io.ReadCloser
	one [1]byte
}

var inflaters = sync.Pool{New: func() any {
	z := &inflater{}
	z.fr = flate.NewReader(&z.br)
	return z
}}

var errTraceInflate = errors.New("interp: a compressed trace chunk does not inflate to the chunk it was recorded as")

// inflate fills dst with chunk ci of a compressed stream, src. A chunk that
// does not inflate to exactly the bytes written to it, whose checksum
// matches its place, fails the replay.
func (z *inflater) inflate(src []byte, ci int, dst *traceChunk) {
	if len(src) < 8 {
		panic(runError{errTraceInflate})
	}
	body, tail := src[:len(src)-8], src[len(src)-8:]
	sum, n := binary.LittleEndian.Uint32(tail), binary.LittleEndian.Uint32(tail[4:])
	if n > traceChunkSize {
		panic(runError{errTraceInflate})
	}
	z.br.Reset(body)
	if err := z.fr.(flate.Resetter).Reset(&z.br, nil); err != nil {
		panic(runError{errTraceInflate})
	}
	raw := dst[:n]
	if _, err := io.ReadFull(z.fr, raw); err != nil {
		panic(runError{errTraceInflate})
	}
	if k, err := z.fr.Read(z.one[:]); k != 0 || err != io.EOF || z.br.Len() != 0 ||
		crc32.Update(uint32(ci), crc32.IEEETable, raw) != sum {
		panic(runError{errTraceInflate})
	}
}

// traceWriter is a recording run's state: operand bytes go straight to the
// trace; escapes and branch directions are staged and written out a batch
// at a time.
type traceWriter struct {
	t     *Trace
	ops   *tstream
	prev  [numOperandKinds]int64
	esc   []uint64
	ne    int
	bits  []uint64
	nbits int
}

// start binds a writer, with staging buffers from a, to t for a recording
// of lm.
func (w *traceWriter) start(t *Trace, lm *lowModule, a *arena) {
	*w = traceWriter{t: t, ops: &t.ops, esc: a.alloc(stageEsc), bits: a.alloc(stageWords)}
	t.lm = lm
	t.ops.n = traceChunkSize // the first block with operands takes a chunk
}

// put records one operand of kind k.
func (w *traceWriter) put(k operandKind, v int64) {
	d := v - w.prev[k]
	w.prev[k] = v
	w.putDelta(d)
}

// putDelta records one operand as the difference d from its predecessor.
func (w *traceWriter) putDelta(d int64) {
	s := w.ops
	if int64(int8(d)) != d || d == escOp {
		w.esc[w.ne] = uint64(d<<1) ^ uint64(d>>63)
		w.ne++
		d = escOp
	}
	s.cur[s.n] = byte(d)
	s.n++
}

// branch records one conditional branch's direction.
func (w *traceWriter) branch(taken bool) {
	w.bits[w.nbits>>6] |= b2u(taken) << (w.nbits & 63)
	w.nbits++
}

// short reports whether the writer lacks room for k operands and a branch
// direction.
func (w *traceWriter) short(k int) bool {
	return w.ops.n+k > traceChunkSize || w.ne+k > len(w.esc) || w.nbits >= (len(w.bits)-1)*64
}

// reserve makes room for k operands and a branch direction.
func (w *traceWriter) reserve(k int) {
	t := w.t
	if w.ops.n+k > traceChunkSize {
		t.grow(w.ops)
	}
	if w.ne+k > len(w.esc) {
		w.flush()
		if k > len(w.esc) {
			w.esc = make([]uint64, k)
		}
	}
	if w.nbits >= (len(w.bits)-1)*64 {
		w.flush()
	}
}

// flush writes the staged escapes and whole words of branch directions to
// the trace.
func (w *traceWriter) flush() {
	t := w.t
	s := &t.esc
	for _, u := range w.esc[:w.ne] {
		if s.cur == nil || s.n > escStart {
			t.grow(s)
		}
		s.n += binary.PutUvarint(s.cur[s.n:], u)
	}
	t.nEsc += w.ne
	w.ne = 0
	words := w.nbits >> 6
	for _, word := range w.bits[:words] {
		t.putWord(word)
	}
	t.nBits += words * 64
	w.bits[0] = w.bits[words]
	clear(w.bits[1:])
	w.nbits &= 63
}

func (t *Trace) putWord(word uint64) {
	s := &t.bits
	if s.cur == nil || s.n > traceChunkSize-8 {
		t.grow(s)
	}
	binary.LittleEndian.PutUint64(s.cur[s.n:], word)
	s.n += 8
}

// seal ends a successful recording. A trace that outgrew its cap is emptied
// instead, and marks the module it records for. A compressed trace
// compresses each stream's last chunk; one that records for its module
// becomes the module's kept trace.
func (w *traceWriter) seal(output uint64) {
	w.flush()
	t := w.t
	if w.nbits > 0 {
		t.putWord(w.bits[0])
		t.nBits += w.nbits
	}
	if t.ops.cur == nil {
		t.ops.n = 0
	}
	if t.over {
		if t.claim != nil {
			t.claim.overCap.Store(true)
		}
		t.Release()
		return
	}
	if t.compress {
		for _, s := range []*tstream{&t.ops, &t.esc, &t.bits} {
			if s.cur != nil {
				t.deflate(s)
				traceChunks.Put(s.cur)
				s.cur = nil
			}
		}
	}
	t.output = output
	t.sealed = true
	if lm := t.claim; lm != nil {
		t.claim, t.kept = nil, true
		lm.kept.Store(t)
		lm.claimed.Store(false)
	}
}

var (
	errTraceOverrun  = errors.New("interp: replay ran past the end of its trace")
	errTraceMismatch = errors.New("interp: replay does not fit its trace")
)

// traceReader is a replay's cursor over a sealed trace. Escapes are decoded
// into buf a batch at a time; escs[ei:] are the decoded ones not yet read.
// A read past them indexes out of range, which runCompiled reports as a
// replay that does not fit its trace.
type traceReader struct {
	t        *Trace
	ops      cursor
	esc      cursor
	bits     cursor
	prev     [numOperandKinds]int64
	buf      []uint64
	escs     []uint64
	ei       int
	escLeft  int // escapes not yet decoded
	word     uint64
	wordBits int // directions left in word; negative once read past the end
	bitsLeft int // directions not yet loaded into word
}

// cursor reads one stream at n in its chunk ci. An escape may start at n
// while n < lim: lim stops the reader where the writer took a new chunk,
// and, in the last chunk, at the end of the recording. Over a compressed
// stream cur is the reader's own chunk, into which each chunk is inflated
// in turn.
type cursor struct {
	ci  int
	cur *traceChunk
	n   int
	lim int
}

// open binds the reader, with a staging buffer from a, to t for a replay
// of lm.
func (r *traceReader) open(t *Trace, lm *lowModule, a *arena) error {
	if !t.sealed {
		return errors.New("interp: replay of a trace that holds no complete recording")
	}
	if t.lm != lm {
		return errors.New("interp: replay of a trace recorded from another module")
	}
	*r = traceReader{t: t, buf: a.alloc(stageEsc), escLeft: t.nEsc, bitsLeft: t.nBits}
	// The first read of each stream takes its first chunk.
	r.ops = cursor{ci: -1, n: traceChunkSize}
	r.esc = cursor{ci: -1, n: traceChunkSize}
	r.bits = cursor{ci: -1, n: traceChunkSize}
	return nil
}

// closeReplay returns what a replay of a compressed trace took from the
// pools: its inflater and the chunks its cursors inflated into.
func (en *cvm) closeReplay() {
	if en.z == nil {
		return
	}
	r := &en.rd
	for _, c := range []*cursor{&r.ops, &r.esc, &r.bits} {
		if c.cur != nil {
			traceChunks.Put(c.cur)
			c.cur = nil
		}
	}
	inflaters.Put(en.z)
	en.z = nil
}

// advance moves c to the next chunk of s, reporting false if there is none.
// A compressed stream's chunk is inflated into c's own chunk by z.
func (c *cursor) advance(s *tstream, z *inflater) bool {
	if c.ci+1 >= s.count() {
		return false
	}
	c.ci++
	c.n = 0
	if z != nil {
		if c.cur == nil {
			c.cur = traceChunks.Get().(*traceChunk)
		}
		z.inflate(s.z[c.ci], c.ci, c.cur)
	} else {
		c.cur = s.chunks[c.ci]
	}
	c.lim = escStart + 1
	if c.ci == s.count()-1 {
		c.lim = min(c.lim, s.n)
	}
	return true
}

// finish checks that the replay consumed its trace exactly.
func (r *traceReader) finish() error {
	at := func(c *cursor, s *tstream) bool {
		return c.ci == s.count()-1 && (c.ci < 0 || c.n == s.n)
	}
	if r.ei != len(r.escs) || r.escLeft != 0 || r.wordBits != 0 || r.bitsLeft != 0 ||
		!at(&r.ops, &r.t.ops) || !at(&r.esc, &r.t.esc) {
		return errors.New("interp: replay ended before the end of its trace")
	}
	return nil
}

// short reports whether the reader may lack k operands or a branch
// direction.
func (r *traceReader) short(k int) bool {
	return r.ops.n+k > traceChunkSize || (len(r.escs)-r.ei < k && r.escLeft > 0) || r.wordBits <= 0
}

// need makes k operands and a branch direction readable, as far as the
// trace has them.
func (en *cvm) need(k int) {
	r := &en.rd
	if r.ops.n+k > traceChunkSize && !r.ops.advance(&r.t.ops, en.z) {
		en.fail(errTraceOverrun)
	}
	if len(r.escs)-r.ei < k && r.escLeft > 0 {
		en.decodeEscapes(k)
	}
	if r.wordBits <= 0 {
		en.nextWord()
	}
}

// operand reads the next operand of kind k.
func (en *cvm) operand(k operandKind) int64 {
	v := en.rd.prev[k] + en.delta()
	en.rd.prev[k] = v
	return v
}

// delta reads the next operand's difference from its predecessor.
func (en *cvm) delta() int64 {
	r := &en.rd
	d := int64(int8(r.ops.cur[r.ops.n]))
	r.ops.n++
	if d == escOp {
		d = int64(r.escs[r.ei])
		r.ei++
	}
	return d
}

// branchTaken reads the next branch direction.
func (en *cvm) branchTaken() bool {
	r := &en.rd
	taken := r.word&1 != 0
	r.word >>= 1
	r.wordBits--
	return taken
}

// decodeEscapes decodes a batch of escapes, at least k if the trace has
// them, after the ones not yet read.
func (en *cvm) decodeEscapes(k int) {
	r := &en.rd
	if k > len(r.buf) {
		r.buf = make([]uint64, k)
	}
	n := copy(r.buf, r.escs[r.ei:])
	c := &r.esc
	for ; n < len(r.buf) && r.escLeft > 0; n++ {
		if c.n >= c.lim && (c.n <= escStart || !c.advance(&r.t.esc, en.z)) {
			en.fail(errTraceOverrun)
		}
		u, w := binary.Uvarint(c.cur[c.n:])
		if w <= 0 {
			en.fail(errTraceMismatch)
		}
		c.n += w
		r.buf[n] = (u >> 1) ^ -(u & 1)
		r.escLeft--
	}
	r.escs, r.ei = r.buf[:n], 0
}

// nextWord loads the next branch directions, 64 or as many as the recording
// has left. A replay that has read past the last one fails.
func (en *cvm) nextWord() {
	r := &en.rd
	if r.wordBits < 0 {
		en.fail(errTraceOverrun)
	}
	if r.bitsLeft == 0 {
		return
	}
	c := &r.bits
	if c.n > traceChunkSize-8 && !c.advance(&r.t.bits, en.z) {
		en.fail(errTraceOverrun)
	}
	r.word = binary.LittleEndian.Uint64(c.cur[c.n:])
	c.n += 8
	r.wordBits = min(64, r.bitsLeft)
	r.bitsLeft -= r.wordBits
}
