package machine

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(4096, 1024)
	pc := mem.Addr(0x400100)
	// A loop branch taken 100 times then not taken: a bimodal predictor
	// should mispredict at most twice (initial training + loop exit).
	miss := 0
	for i := 0; i < 100; i++ {
		if bp.Conditional(pc, true) {
			miss++
		}
	}
	if bp.Conditional(pc, false) {
		miss++
	}
	if miss > 2 {
		t.Fatalf("loop branch mispredicted %d times", miss)
	}
}

func TestBranchPredictorAliasing(t *testing.T) {
	bp := NewBranchPredictor(16, 16) // tiny tables to force aliasing
	// Two branches whose indices collide and with opposite biases thrash
	// each other's counter.
	a := mem.Addr(0x1000)
	b := a + 16*4 // same counter index: (pc>>2) mod 16
	if (uint64(a)>>2)&15 != (uint64(b)>>2)&15 {
		t.Fatal("test addresses do not alias")
	}
	for i := 0; i < 50; i++ {
		bp.Conditional(a, true)
		bp.Conditional(b, false)
	}
	aliased := bp.DirectionMispredicts
	// Now the same workload with non-aliasing addresses.
	bp2 := NewBranchPredictor(16, 16)
	c := mem.Addr(0x1004) // different index
	for i := 0; i < 50; i++ {
		bp2.Conditional(a, true)
		bp2.Conditional(c, false)
	}
	if aliased <= bp2.DirectionMispredicts {
		t.Fatalf("aliasing (%d mispredicts) not worse than non-aliasing (%d)",
			aliased, bp2.DirectionMispredicts)
	}
}

func TestBTBTargetPrediction(t *testing.T) {
	bp := NewBranchPredictor(16, 16)
	pc, target := mem.Addr(0x2000), mem.Addr(0x400000)
	if !bp.Indirect(pc, target) {
		t.Fatal("cold BTB lookup predicted correctly")
	}
	if bp.Indirect(pc, target) {
		t.Fatal("warm BTB lookup mispredicted")
	}
	if !bp.Indirect(pc, target+64) {
		t.Fatal("changed target not mispredicted")
	}
}

func TestMachineRetire(t *testing.T) {
	m := New(DefaultConfig())
	m.Retire(100)
	if m.Cycles != 100 || m.Instructions != 100 {
		t.Fatalf("cycles=%d instrs=%d after retiring 100", m.Cycles, m.Instructions)
	}
}

func TestMachineDataMissCosts(t *testing.T) {
	m := New(DefaultConfig())
	costs := m.Costs
	m.Data(0x10000000, 8)
	// Cold access: TLB miss + L1+L2+L3 misses.
	want := costs.TLBMiss + costs.L1Miss + costs.L2Miss + costs.L3Miss
	if m.Cycles != want {
		t.Fatalf("cold data access cost %d, want %d", m.Cycles, want)
	}
	m.Cycles = 0
	m.Data(0x10000000, 8)
	if m.Cycles != 0 {
		t.Fatalf("warm data access cost %d, want 0", m.Cycles)
	}
}

func TestMachineDataSpansLines(t *testing.T) {
	m := New(DefaultConfig())
	m.Data(0x1003c, 8) // crosses a 64-byte boundary
	if m.L1D.Misses != 2 {
		t.Fatalf("line-crossing access missed %d lines, want 2", m.L1D.Misses)
	}
}

func TestMachineFetchUsesICache(t *testing.T) {
	m := New(DefaultConfig())
	m.Fetch(0x400000, 32)
	if m.L1I.Misses != 1 || m.L1D.Misses != 0 {
		t.Fatalf("fetch went to wrong cache: L1I misses=%d L1D misses=%d",
			m.L1I.Misses, m.L1D.Misses)
	}
}

func TestMachineL2SharedBetweenCodeAndData(t *testing.T) {
	m := New(DefaultConfig())
	m.Fetch(0x400000, 8)
	m.Cycles = 0
	// A data access to the same line: misses L1D but hits the shared L2.
	m.Data(0x400000, 8)
	want := m.Costs.L1Miss // TLB warm, L2 hit
	if m.Cycles != want {
		t.Fatalf("shared-L2 access cost %d, want %d", m.Cycles, want)
	}
}

func TestMachineIndirectFarJumpCost(t *testing.T) {
	m := New(DefaultConfig())
	near := mem.Addr(0x40000000)
	far := mem.Addr(0x7f0000000000)
	m.IndirectBranch(0x1000, near)
	nearCost := m.Cycles
	m.Cycles = 0
	m.IndirectBranch(0x2000, far)
	if m.Cycles != nearCost+m.Costs.SlowJump {
		t.Fatalf("far jump cost %d, want near cost %d plus slow-jump %d",
			m.Cycles, nearCost, m.Costs.SlowJump)
	}
}

func TestMachineSecondsConversion(t *testing.T) {
	m := New(DefaultConfig())
	m.Stall(3_200_000_000)
	if s := m.Seconds(); s < 0.999 || s > 1.001 {
		t.Fatalf("3.2e9 cycles = %v seconds, want 1.0", s)
	}
}

func TestMachineResetCounters(t *testing.T) {
	m := New(DefaultConfig())
	m.Data(0x1000, 8)
	m.Retire(10)
	m.CondBranch(0x400000, true)
	m.ResetCounters()
	if m.Cycles != 0 || m.Instructions != 0 || m.L1D.Misses != 0 || m.BP.Lookups != 0 {
		t.Fatal("counters survived reset")
	}
	// Learned state survives: the line is still resident.
	if !m.L1D.Probe(0x1000) {
		t.Fatal("reset flushed cache contents")
	}
}

func TestLayoutLuckEndToEnd(t *testing.T) {
	// The central premise: the same access pattern with different layouts
	// costs different amounts. Two hot arrays placed set-aligned conflict;
	// offset by one line they coexist.
	run := func(b mem.Addr) uint64 {
		m := New(DefaultConfig())
		a := mem.Addr(0x10000000)
		for i := 0; i < 10000; i++ {
			m.Data(a, 8)
			m.Data(b, 8)
		}
		return m.Cycles
	}
	l1Span := mem.Addr(32 << 10) // addresses 32 KiB apart share an L1D set
	conflictFree := run(0x10000000 + 64)
	// 8-way L1D: need 8 extra conflicting lines to overflow a set; a single
	// pair won't thrash. Use many aliasing addresses instead.
	runMany := func(stride mem.Addr) uint64 {
		m := New(DefaultConfig())
		for i := 0; i < 2000; i++ {
			for j := 0; j < 10; j++ {
				m.Data(0x10000000+mem.Addr(j)*stride, 8)
			}
		}
		return m.Cycles
	}
	thrash := runMany(l1Span)
	spread := runMany(64)
	if thrash <= spread {
		t.Fatalf("set-aliased layout (%d cycles) not slower than spread layout (%d)",
			thrash, spread)
	}
	_ = conflictFree
}

func TestCore2Config(t *testing.T) {
	m := New(Core2Config())
	// The shared last-level cache's index bits must span 6..17: 4 MiB,
	// 16 ways, 64 B lines -> 4096 sets -> index bits 6..17 inclusive.
	if m.L3.Sets() != 4096 {
		t.Fatalf("Core 2 shared cache has %d sets, want 4096", m.L3.Sets())
	}
	// Sanity: runs and charges cycles.
	m.Retire(10)
	m.Data(0x1000, 8)
	if m.Cycles == 0 {
		t.Fatal("no cycles charged")
	}
	if m.ClockHz != 2.4e9 {
		t.Fatal("wrong clock")
	}
}

// TestResetMatchesNew drives every table and counter of a machine away
// from its initial state, then requires Reset to leave the machine deeply
// equal, unexported fields included, to a new one. Tag arrays must be
// cleared in place: a slice MRUView returned before Reset still aliases the
// live array after it.
func TestResetMatchesNew(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "core2": Core2Config()} {
		m := New(cfg)
		tlbTags, _, _, _ := m.TLB.MRUView()
		l1dTags, _, _, _ := m.L1D.MRUView()

		m.SetPhysicalSeed(42)
		drive := func(base mem.Addr) {
			for i := mem.Addr(0); i < 4096; i++ {
				a := base + i*4160 // strides across sets and pages
				m.Data(a, 8)
				m.Data8(a + 60) // straddles a line
				m.Fetch(a+1<<20, 24)
				m.FetchPre(m.PrepareFetch(a+2<<20, 100, nil))
				m.CondBranch(a, i%3 == 0)
				m.IndirectBranch(a, a+mem.Addr(i%5)<<33) // some targets above 4 GiB
			}
			m.Retire(100)
			m.Stall(7)
		}
		drive(0x10000)
		m.L1D.Flush()
		m.L3.Flush()
		m.BP.Flush()
		drive(0x7f0000)
		if m.Cycles == 0 || m.L3.Misses == 0 || m.BP.TargetMispredicts == 0 || len(m.frames) == 0 {
			t.Fatalf("%s: drive left state untouched", name)
		}

		m.Reset()
		if !reflect.DeepEqual(m, New(cfg)) {
			t.Errorf("%s: Reset machine differs from New(cfg)", name)
		}
		if got, _, _, _ := m.TLB.MRUView(); &got[0] != &tlbTags[0] {
			t.Errorf("%s: Reset replaced the TLB tag array", name)
		}
		if got, _, _, _ := m.L1D.MRUView(); &got[0] != &l1dTags[0] {
			t.Errorf("%s: Reset replaced the L1D tag array", name)
		}
	}
}
