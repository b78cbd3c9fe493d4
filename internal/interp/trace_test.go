package interp

import (
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
	for _, s := range []*tstream{&c.ops, &c.bits} {
		chunks := make([]*traceChunk, len(s.chunks))
		for i, ch := range s.chunks {
			cp := *ch
			chunks[i] = &cp
		}
		s.chunks = chunks
		if len(chunks) > 0 {
			s.cur = chunks[len(chunks)-1]
		}
	}
	return &c
}

// TestReplayOfDamagedTraceFails replays traces cut short, or carrying more
// than the run reads, in each stream: every replay must return an error,
// never numbers, while the undamaged trace still replays.
func TestReplayOfDamagedTraceFails(t *testing.T) {
	b, _ := spec.ByName("cactusADM")
	m, err := compiler.Compile(b.Build(0.05), compiler.Options{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	defer tr.Release()
	want, err := runTraced(t, m, 1, tr, nil)
	if err != nil || !tr.Replayable() {
		t.Fatalf("recording: %v (replayable %v)", err, tr.Replayable())
	}
	if len(tr.ops.chunks) < 2 || tr.nEsc == 0 || tr.nBits == 0 {
		t.Fatalf("trace has %d operand chunks, %d escapes and %d branches; the test needs at least 2, 1 and 1",
			len(tr.ops.chunks), tr.nEsc, tr.nBits)
	}
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
	got, err := runTraced(t, m, 1, nil, tr)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("undamaged replay: %+v, %v; want %+v", got, err, want)
	}
}
