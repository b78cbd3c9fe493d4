package machine

import (
	"repro/internal/mem"
	"repro/internal/rng"
)

// CostModel holds the cycle penalties charged for microarchitectural events.
// Values approximate the paper's Core i3-550 (3.2 GHz, 32 KiB L1, 256 KiB
// L2, 4 MiB shared L3).
type CostModel struct {
	BaseCycle   uint64 // per retired instruction
	L1Miss      uint64 // L1 miss that hits L2
	L2Miss      uint64 // L2 miss that hits L3
	L3Miss      uint64 // miss to DRAM
	TLBMiss     uint64 // page walk
	Mispredict  uint64 // direction or target misprediction
	SlowJump    uint64 // push+ret 64-bit jump (when code is above 4 GiB, §3.5)
	UnalignedFP uint64 // alignment-sensitive FP op on a misaligned operand
}

// DefaultCosts returns the cost model used throughout the evaluation.
func DefaultCosts() CostModel {
	return CostModel{
		BaseCycle:   1,
		L1Miss:      10,
		L2Miss:      25,
		L3Miss:      150,
		TLBMiss:     30,
		Mispredict:  15,
		SlowJump:    20,
		UnalignedFP: 8,
	}
}

// Config describes a complete machine.
type Config struct {
	L1I, L1D, L2, L3 CacheConfig
	TLBEntries       int
	TLBWays          int
	PredictorEntries int
	BTBEntries       int
	Costs            CostModel
	ClockHz          float64
}

// DefaultConfig mirrors the paper's evaluation machine: per-core 32 KiB L1s
// and 256 KiB L2, a shared 4 MiB L3, running at 3.2 GHz.
func DefaultConfig() Config {
	return Config{
		L1I:              CacheConfig{Name: "L1I", Size: 32 << 10, LineSize: 64, Ways: 4},
		L1D:              CacheConfig{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8},
		L2:               CacheConfig{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8},
		L3:               CacheConfig{Name: "L3", Size: 4 << 20, LineSize: 64, Ways: 16},
		TLBEntries:       64,
		TLBWays:          4,
		PredictorEntries: 1024,
		BTBEntries:       512,
		Costs:            DefaultCosts(),
		ClockHz:          3.2e9,
	}
}

// Core2Config models the Intel Core 2 the paper's NIST experiment ran on
// (§3.2): no L3, a large shared L2 (4 MiB, 16-way) whose index bits span
// 6–17 — which is why the paper feeds those bits to the randomness tests.
// The Config keeps this reproduction's two-level L2/L3 interface by modeling
// the Core 2's L2 as the L3 slot with a small mid-level cache in between.
func Core2Config() Config {
	return Config{
		L1I: CacheConfig{Name: "L1I", Size: 32 << 10, LineSize: 64, Ways: 8},
		L1D: CacheConfig{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 8},
		// The Core 2 has no private mid-level cache; a small stand-in keeps
		// the hierarchy shape without materially filtering accesses.
		L2:               CacheConfig{Name: "L2", Size: 64 << 10, LineSize: 64, Ways: 8},
		L3:               CacheConfig{Name: "L2-shared", Size: 4 << 20, LineSize: 64, Ways: 16},
		TLBEntries:       256,
		TLBWays:          4,
		PredictorEntries: 2048,
		BTBEntries:       2048,
		Costs:            DefaultCosts(),
		ClockHz:          2.4e9,
	}
}

// Machine is one simulated core plus its memory hierarchy. All costs
// accumulate into Cycles.
type Machine struct {
	L1I, L1D, L2, L3 *Cache
	TLB              *Cache
	BP               *BranchPredictor
	Costs            CostModel
	ClockHz          float64

	Cycles       uint64
	Instructions uint64

	// Physical translation state: L1 caches and the TLB are virtually
	// indexed (VIPT with a 4 KiB-period index), but L2 and L3 are
	// physically indexed, and the OS assigns physical frames essentially
	// at random. frames memoizes the per-run page -> frame assignment;
	// nil means identity mapping (virtual == physical), the default.
	// frameCache is a direct-mapped lookaside in front of the map; entries
	// key on page+1 so the zero value never matches a real page.
	frames     map[uint64]uint64
	frameRNG   *rng.Marsaglia
	frameCache [frameCacheLen]frameCacheEntry
}

// frameCacheLen sizes translate's lookaside; a working set beyond this many
// distinct pages just falls back to the memoizing map.
const frameCacheLen = 1024

type frameCacheEntry struct {
	page1 uint64 // page number + 1; 0 = empty
	frame uint64
}

// physFrameBits bounds simulated physical memory (2^18 frames = 1 GiB).
const physFrameBits = 18

// colorBits is the number of low page-number bits the frame allocator
// preserves (page coloring). 3 bits cover the L2's 8-page index period, so
// L2 conflict behaviour follows virtual placement; the L3's higher index
// bits remain at the mercy of the (random) frame allocator.
const colorBits = 3

// SetPhysicalSeed enables randomized page-to-frame assignment for this run,
// modeling the OS's physical allocator with classic page coloring: a frame
// always shares the page's low colorBits (so the L2 sees virtual-equivalent
// indexing, as OS page coloring guarantees), while higher frame bits are
// random (so L3 set placement varies per run). Two runs with the same seed
// see the same frames; without a call, translation is the identity. This is
// a real source of run-to-run variance on hardware — and part of why layout
// luck in large, never-moved allocations (cactusADM's grids) persists for a
// whole run no matter what the virtual-layout randomizer does.
func (m *Machine) SetPhysicalSeed(seed uint64) {
	m.frames = make(map[uint64]uint64)
	m.frameRNG = rng.NewMarsaglia(seed)
	m.frameCache = [frameCacheLen]frameCacheEntry{}
}

// translate maps a virtual address to its simulated physical address.
func (m *Machine) translate(a mem.Addr) mem.Addr {
	if m.frames == nil {
		return a
	}
	page := uint64(a) / mem.PageSize
	e := &m.frameCache[page&(frameCacheLen-1)]
	if e.page1 != page+1 {
		frame, ok := m.frames[page]
		if !ok {
			high := m.frameRNG.Uint64n(1 << (physFrameBits - colorBits))
			frame = high<<colorBits | page&(1<<colorBits-1)
			m.frames[page] = frame
		}
		e.page1, e.frame = page+1, frame
	}
	return mem.Addr(e.frame*mem.PageSize + uint64(a)%mem.PageSize)
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	return &Machine{
		L1I:     NewCache(cfg.L1I),
		L1D:     NewCache(cfg.L1D),
		L2:      NewCache(cfg.L2),
		L3:      NewCache(cfg.L3),
		TLB:     NewTLB(cfg.TLBEntries, cfg.TLBWays),
		BP:      NewBranchPredictor(cfg.PredictorEntries, cfg.BTBEntries),
		Costs:   cfg.Costs,
		ClockHz: cfg.ClockHz,
	}
}

// Reset returns the machine to the state New left it in: empty caches and
// TLB, zeroed statistics and Gen counters, a power-on branch predictor, and
// identity physical translation. Tables are cleared in place, so slices
// MRUView returned stay valid. A run on a reset machine is bit-identical to
// a run on a new one, so callers may reuse machines across runs instead of
// allocating their tables afresh.
func (m *Machine) Reset() {
	m.Cycles, m.Instructions = 0, 0
	for _, c := range [...]*Cache{m.L1I, m.L1D, m.L2, m.L3, m.TLB} {
		c.reset()
	}
	m.BP.reset()
	m.frames = nil
	m.frameRNG = nil
	m.frameCache = [frameCacheLen]frameCacheEntry{}
}

// Retire charges the base cost for n retired instructions.
func (m *Machine) Retire(n uint64) {
	m.Instructions += n
	m.Cycles += n * m.Costs.BaseCycle
}

// memAccess runs one address through TLB + the data or instruction hierarchy
// and charges the resulting penalty.
func (m *Machine) memAccess(a mem.Addr, l1 *Cache) {
	if !m.TLB.Access(a) {
		m.Cycles += m.Costs.TLBMiss
	}
	if l1.Access(a) {
		return
	}
	phys := m.translate(a)
	if m.L2.Access(phys) {
		m.Cycles += m.Costs.L1Miss
		return
	}
	if m.L3.Access(phys) {
		m.Cycles += m.Costs.L1Miss + m.Costs.L2Miss
		return
	}
	m.Cycles += m.Costs.L1Miss + m.Costs.L2Miss + m.Costs.L3Miss
}

// Data performs a data access (load or store) of size bytes at a. Accesses
// are charged per cache line spanned.
func (m *Machine) Data(a mem.Addr, size uint64) {
	line := m.L1D.LineSize()
	first := uint64(a) &^ (line - 1)
	last := (uint64(a) + size - 1) &^ (line - 1)
	for l := first; ; l += line {
		m.memAccess(mem.Addr(l), m.L1D)
		if l >= last {
			break
		}
	}
}

// Fetch charges instruction fetch for the code bytes in [a, a+size).
func (m *Machine) Fetch(a mem.Addr, size uint64) {
	line := m.L1I.LineSize()
	first := uint64(a) &^ (line - 1)
	last := (uint64(a) + size - 1) &^ (line - 1)
	for l := first; ; l += line {
		m.memAccess(mem.Addr(l), m.L1I)
		if l >= last {
			break
		}
	}
}

// CondBranch records a conditional branch at pc with the given outcome.
func (m *Machine) CondBranch(pc mem.Addr, taken bool) {
	if m.BP.Conditional(pc, taken) {
		m.Cycles += m.Costs.Mispredict
	}
}

// IndirectBranch records an indirect transfer (call/return through memory).
func (m *Machine) IndirectBranch(pc, target mem.Addr) {
	if m.BP.Indirect(pc, target) {
		m.Cycles += m.Costs.Mispredict
	}
	if !mem.Below4G(target) {
		// Far targets need the push+ret jump sequence (§3.5).
		m.Cycles += m.Costs.SlowJump
	}
}

// Stall charges n raw cycles (used for modeled runtime work such as trap
// handling and relocation copies).
func (m *Machine) Stall(n uint64) { m.Cycles += n }

// Seconds converts the accumulated cycle count to simulated wall time.
func (m *Machine) Seconds() float64 { return float64(m.Cycles) / m.ClockHz }

// ResetCounters zeroes all statistics (cycles, instruction count, cache and
// predictor counters) while keeping learned microarchitectural state.
func (m *Machine) ResetCounters() {
	m.Cycles, m.Instructions = 0, 0
	m.L1I.ResetCounters()
	m.L1D.ResetCounters()
	m.L2.ResetCounters()
	m.L3.ResetCounters()
	m.TLB.ResetCounters()
	m.BP.ResetCounters()
}
