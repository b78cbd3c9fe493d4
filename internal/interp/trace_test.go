package interp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/spec"
)

// runTraced links m with the native layout and runs it under the compiled
// engine on a fresh machine seeded with seed, recording into capture or
// replaying replay.
func runTraced(t *testing.T, m *ir.Module, seed uint64, capture, replay *Trace) (Result, error) {
	t.Helper()
	as := mem.NewAddressSpace()
	img, err := compiler.Link(m, compiler.DefaultOrder(len(m.Funcs)), as)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(machine.DefaultConfig())
	mach.SetPhysicalSeed(seed)
	return Run(m, Options{
		Machine: mach,
		Runtime: &NativeRuntime{
			FuncAddrs:   img.FuncAddrs,
			GlobalAddrs: img.GlobalAddrs,
			Stack:       as.StackBase(),
			Heap:        heap.NewSegregated(as),
			Mach:        mach,
		},
		Capture: capture,
		Replay:  replay,
	})
}

// copyTrace returns a deep copy of a sealed trace, which a test may damage
// without touching the original.
func copyTrace(tr *Trace) *Trace {
	c := *tr
	c.kept = false
	for _, s := range []*tstream{&c.ops, &c.esc, &c.bits} {
		chunks := make([]*traceChunk, len(s.chunks))
		for i, ch := range s.chunks {
			cp := *ch
			chunks[i] = &cp
		}
		s.chunks = chunks
		if len(chunks) > 0 {
			s.cur = chunks[len(chunks)-1]
		}
		z := make([][]byte, len(s.z))
		for i, b := range s.z {
			z[i] = bytes.Clone(b)
		}
		s.z = z
	}
	return &c
}

// recordCactus records cactusADM at scale 0.05 into a raw trace and into
// the compressed trace its module keeps, and checks that they hold at
// least two operand chunks, an escape and a branch.
func recordCactus(t *testing.T) (m *ir.Module, want Result, raw, kept *Trace) {
	t.Helper()
	b, _ := spec.ByName("cactusADM")
	m, err := compiler.Compile(b.Build(0.05), compiler.Options{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	raw = NewTrace()
	want, err = runTraced(t, m, 1, raw, nil)
	if err != nil || !raw.Replayable() {
		t.Fatalf("recording: %v (replayable %v)", err, raw.Replayable())
	}
	if len(raw.ops.chunks) < 2 || raw.nEsc == 0 || raw.nBits == 0 {
		t.Fatalf("trace has %d operand chunks, %d escapes and %d branches; the test needs at least 2, 1 and 1",
			len(raw.ops.chunks), raw.nEsc, raw.nBits)
	}
	kept = ClaimTrace(m)
	if got, err := runTraced(t, m, 1, kept, nil); err != nil || !reflect.DeepEqual(got, want) || KeptTrace(m) != kept {
		t.Fatalf("recording for the module: %+v, %v; want %+v", got, err, want)
	}
	return m, want, raw, kept
}

// TestCompressedTraceKeepsRawFormat checks that a trace recorded for its
// module holds the raw recording's three streams chunk for chunk: each
// compressed chunk inflates to the bytes written to the raw chunk.
func TestCompressedTraceKeepsRawFormat(t *testing.T) {
	_, _, raw, kept := recordCactus(t)
	defer raw.Release()
	if kept.Bytes()*10 > raw.Bytes() {
		t.Errorf("compressed trace is %d bytes, raw %d: want under a tenth", kept.Bytes(), raw.Bytes())
	}
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	for name, pair := range map[string][2]*tstream{
		"operands": {&raw.ops, &kept.ops}, "escapes": {&raw.esc, &kept.esc}, "branches": {&raw.bits, &kept.bits},
	} {
		r, c := pair[0], pair[1]
		if len(c.chunks) != 0 || c.cur != nil || len(c.z) != len(r.chunks) || c.n != r.n {
			t.Fatalf("%s: compressed stream has %d raw and %d compressed chunks, end %d; raw has %d chunks, end %d",
				name, len(c.chunks), len(c.z), c.n, len(r.chunks), r.n)
		}
		var last int
		for i := range c.z {
			var got traceChunk
			func() {
				defer func() {
					if e := recover(); e != nil {
						t.Fatalf("%s: chunk %d: %v", name, i, e)
					}
				}()
				z.inflate(c.z[i], i, &got)
			}()
			// The bytes a chunk holds end where the writer moved past it,
			// or, in the last chunk, at the end of the recording.
			zc := c.z[i]
			last = int(binary.LittleEndian.Uint32(zc[len(zc)-4:]))
			if !bytes.Equal(got[:last], r.chunks[i][:last]) {
				t.Fatalf("%s: chunk %d does not inflate to the raw chunk's %d bytes", name, i, last)
			}
		}
		if len(c.z) > 0 && last != r.n {
			t.Fatalf("%s: the last chunk holds %d bytes, the raw one %d", name, last, r.n)
		}
	}
}

// TestReplayOfDamagedTraceFails replays traces cut short, or carrying more
// than the run reads, in each stream, and compressed traces with a stream
// cut short, a byte flipped or a chunk missing: every replay must return an
// error, never numbers, while the undamaged traces still replay.
func TestReplayOfDamagedTraceFails(t *testing.T) {
	m, want, tr, kept := recordCactus(t)
	defer tr.Release()
	for name, damage := range map[string]func(*Trace){
		"last operand byte cut":  func(c *Trace) { c.ops.n-- },
		"last operand chunk cut": func(c *Trace) { c.ops.chunks = c.ops.chunks[:len(c.ops.chunks)-1] },
		"last branch cut":        func(c *Trace) { c.nBits-- },
		"operand added": func(c *Trace) {
			c.ops.cur[c.ops.n] = 16
			c.ops.n++
		},
		"last escape cut": func(c *Trace) { c.nEsc-- },
		"escape added":    func(c *Trace) { c.nEsc++ },
		"branch added":    func(c *Trace) { c.nBits++ },
	} {
		c := copyTrace(tr)
		damage(c)
		if res, err := runTraced(t, m, 2, nil, c); err == nil {
			t.Errorf("%s: replay returned %+v", name, res)
		}
	}
	for name, damage := range map[string]func(*Trace){
		"operand stream truncated": func(c *Trace) {
			z := c.ops.z[0]
			c.ops.z[0] = append(z[:len(z)/2:len(z)/2], z[len(z)-8:]...)
		},
		"operand length raised": func(c *Trace) { c.ops.z[0][len(c.ops.z[0])-4]++ },
		"escape stream truncated": func(c *Trace) {
			z := c.esc.z[len(c.esc.z)-1]
			c.esc.z[len(c.esc.z)-1] = append(z[:len(z)-10:len(z)-10], z[len(z)-8:]...)
		},
		"operand byte flipped": func(c *Trace) { c.ops.z[1][len(c.ops.z[1])/2] ^= 0x10 },
		"branch byte flipped":  func(c *Trace) { c.bits.z[0][len(c.bits.z[0])/3] ^= 0x01 },
		"checksum flipped":     func(c *Trace) { c.ops.z[0][len(c.ops.z[0])-5] ^= 0x80 },
		"operand chunk missing": func(c *Trace) {
			c.ops.z = append(c.ops.z[:0:0], c.ops.z[1:]...)
		},
		"last branch chunk missing": func(c *Trace) { c.bits.z = c.bits.z[:len(c.bits.z)-1] },
		"operand chunks swapped": func(c *Trace) {
			c.ops.z[0], c.ops.z[1] = c.ops.z[1], c.ops.z[0]
		},
	} {
		c := copyTrace(kept)
		damage(c)
		if res, err := runTraced(t, m, 2, nil, c); err == nil {
			t.Errorf("compressed, %s: replay returned %+v", name, res)
		}
	}
	for name, tr := range map[string]*Trace{"raw": tr, "compressed": kept} {
		got, err := runTraced(t, m, 1, nil, tr)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("undamaged %s replay: %+v, %v; want %+v", name, got, err, want)
		}
	}
}
