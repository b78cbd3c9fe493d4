package machine

import "repro/internal/mem"

// BranchPredictor models a bimodal (2-bit saturating counter) direction
// predictor plus a direct-mapped branch target buffer. Both tables are
// indexed by low-order bits of the branch address, so two branches whose
// addresses coincide modulo the table size interfere — the "branch aliasing"
// the paper credits for code-randomization speedups on astar, hmmer, mcf,
// and namd (§5.2).
type BranchPredictor struct {
	counters []uint8    // 2-bit saturating counters, initialized weakly taken
	btb      []mem.Addr // predicted targets
	btbTags  []uint64
	mask     uint64
	btbMask  uint64

	Lookups              uint64
	DirectionMispredicts uint64
	TargetMispredicts    uint64
}

// NewBranchPredictor builds a predictor with the given table sizes (powers of
// two). Typical values: 4096 counters, 1024 BTB entries.
func NewBranchPredictor(counterEntries, btbEntries int) *BranchPredictor {
	if counterEntries <= 0 || counterEntries&(counterEntries-1) != 0 {
		panic("machine: counter table size must be a positive power of two")
	}
	if btbEntries <= 0 || btbEntries&(btbEntries-1) != 0 {
		panic("machine: BTB size must be a positive power of two")
	}
	bp := &BranchPredictor{
		counters: make([]uint8, counterEntries),
		btb:      make([]mem.Addr, btbEntries),
		btbTags:  make([]uint64, btbEntries),
		mask:     uint64(counterEntries - 1),
		btbMask:  uint64(btbEntries - 1),
	}
	for i := range bp.counters {
		bp.counters[i] = 2 // weakly taken
	}
	return bp
}

// index hashes a branch address into the counter table. Only low-order bits
// participate, preserving the aliasing behaviour of real bimodal tables.
func (bp *BranchPredictor) index(pc mem.Addr) uint64 {
	return (uint64(pc) >> 2) & bp.mask
}

// Conditional records the outcome of a conditional branch at pc and reports
// whether the direction was mispredicted.
func (bp *BranchPredictor) Conditional(pc mem.Addr, taken bool) bool {
	bp.Lookups++
	i := bp.index(pc)
	c := bp.counters[i]
	predictTaken := c >= 2
	if taken && c < 3 {
		bp.counters[i] = c + 1
	} else if !taken && c > 0 {
		bp.counters[i] = c - 1
	}
	if predictTaken != taken {
		bp.DirectionMispredicts++
		return true
	}
	return false
}

// Indirect records an indirect control transfer (call through a pointer,
// return via the BTB path) from pc to target and reports whether the target
// was mispredicted.
func (bp *BranchPredictor) Indirect(pc mem.Addr, target mem.Addr) bool {
	bp.Lookups++
	i := (uint64(pc) >> 2) & bp.btbMask
	tag := uint64(pc) | 1<<63
	hit := bp.btbTags[i] == tag && bp.btb[i] == target
	bp.btbTags[i] = tag
	bp.btb[i] = target
	if !hit {
		bp.TargetMispredicts++
		return true
	}
	return false
}

// ResetCounters zeroes the statistics but keeps learned state.
func (bp *BranchPredictor) ResetCounters() {
	bp.Lookups, bp.DirectionMispredicts, bp.TargetMispredicts = 0, 0, 0
}

// Flush forgets all learned state, as after a context switch.
func (bp *BranchPredictor) Flush() {
	for i := range bp.counters {
		bp.counters[i] = 2
	}
	for i := range bp.btbTags {
		bp.btbTags[i] = 0
	}
}

// reset returns the predictor to its NewBranchPredictor state.
func (bp *BranchPredictor) reset() {
	bp.Flush()
	clear(bp.btb)
	bp.ResetCounters()
}
