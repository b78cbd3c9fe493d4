// Fast-path entry points for the compiled execution engine.
//
// The tree-walk interpreter drives the machine through the general
// Fetch/Data calls, which re-derive line splits, set indices, and tags on
// every access. The compiled engine instead precomputes those per layout
// epoch (PrepareFetch → PreLine) and issues accesses through FetchPre,
// Data8 and Data8Miss, which perform *exactly* the same cache, TLB, and
// counter transitions as the general paths — the equivalence the
// cross-engine differential suite pins down. Any behavioural difference
// between these functions and Fetch/Data is a bug.
package machine

import "repro/internal/mem"

// PreLine is one instruction-fetch cache line with its set-index/tag
// computations memoized: the line's address plus the (tag, set base) pair
// for the TLB and the L1I cache it will be looked up in. A PreLine is valid
// only for the Machine that built it (set geometry is configuration-bound)
// and for as long as the code it covers stays put — i.e. one layout epoch.
type PreLine struct {
	Addr           mem.Addr
	TLBTag, L1ITag uint64
	TLBSet, L1ISet int32 // base index into the cache's tag array
}

// preLine memoizes one line's lookup coordinates for cache c.
func preLineFor(c *Cache, a mem.Addr) (tag uint64, base int32) {
	line := c.line(a)
	return line | 1<<63, int32(line&c.setMask) * int32(c.ways)
}

// PrepareFetch appends to out one PreLine per L1I cache line spanned by the
// code bytes in [a, a+size) — the same span Fetch(a, size) walks — with the
// TLB and L1I lookup coordinates precomputed.
func (m *Machine) PrepareFetch(a mem.Addr, size uint64, out []PreLine) []PreLine {
	line := m.L1I.granularity
	first := uint64(a) &^ (line - 1)
	last := (uint64(a) + size - 1) &^ (line - 1)
	for l := first; ; l += line {
		p := PreLine{Addr: mem.Addr(l)}
		p.TLBTag, p.TLBSet = preLineFor(m.TLB, mem.Addr(l))
		p.L1ITag, p.L1ISet = preLineFor(m.L1I, mem.Addr(l))
		out = append(out, p)
		if l >= last {
			break
		}
	}
	return out
}

// accessPre is Cache.Access with the set-index/tag computation hoisted out:
// identical hit/miss/eviction/LRU behaviour, lookup coordinates supplied by
// the caller. The MRU probe indexes the tag array directly so the hit path
// builds no slice header; only the cold path materializes the set. (It is
// over the compiler's inlining budget; FetchSteady is the inlinable form of
// its hit path.)
func (c *Cache) accessPre(tag uint64, base int32) bool {
	if c.tags[base] == tag {
		c.Hits++
		return true
	}
	return c.accessCold(c.tags[base:int(base)+c.ways], tag)
}

// accessCold handles an access whose tag is not in the MRU way: scan the
// remaining ways, move-to-front on a hit, install with LRU eviction on a
// miss. The scan shifts each way it passes down by one as it goes, so the
// move-to-front costs no second pass over the set. Every path through here
// moves tags, so Gen always advances.
func (c *Cache) accessCold(set []uint64, tag uint64) bool {
	c.Gen++
	prev := set[0]
	for i := 1; i < len(set); i++ {
		t := set[i]
		set[i] = prev
		if t == tag {
			set[0] = tag
			c.Hits++
			return true
		}
		prev = t
	}
	// prev is the LRU way the shift pushed out.
	c.Misses++
	if prev != 0 {
		c.Evictions++
	}
	set[0] = tag
	return false
}

// FetchPre charges instruction fetch for a precomputed line span. It is
// counter- and state-equivalent to the Fetch call the lines were prepared
// from: per line, a TLB access, an L1I access, and on an L1I miss the
// physical translate → L2 → L3 ladder with the same cost charges.
func (m *Machine) FetchPre(lines []PreLine) {
	for i := range lines {
		p := &lines[i]
		if !m.TLB.accessPre(p.TLBTag, p.TLBSet) {
			m.Cycles += m.Costs.TLBMiss
		}
		if m.L1I.accessPre(p.L1ITag, p.L1ISet) {
			continue
		}
		m.missBelowL1(p.Addr)
	}
}

// FetchSteady charges instruction fetch for a precomputed line span in the
// steady state of a hot loop: every line hits in the MRU way of both the
// TLB and the L1I. An MRU hit mutates nothing but the hit counter, so the
// span's whole effect collapses to two bulk counter adds and no cycle
// charge — exactly what FetchPre would have done line by line. The
// verification probes are pure reads, so when any line is not an MRU hit
// the function returns false having changed nothing and the caller replays
// the span through FetchPre unchanged.
func (m *Machine) FetchSteady(lines []PreLine) bool {
	tt, it := m.TLB.tags, m.L1I.tags
	for i := range lines {
		p := &lines[i]
		if tt[p.TLBSet] != p.TLBTag || it[p.L1ISet] != p.L1ITag {
			return false
		}
	}
	n := uint64(len(lines))
	m.TLB.Hits += n
	m.L1I.Hits += n
	return true
}

// missBelowL1 runs the physically-indexed part of the hierarchy after an L1
// miss, charging the same cost ladder as memAccess.
func (m *Machine) missBelowL1(a mem.Addr) {
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

// Data8 performs Data(a, 8) through one call: the dominant access shape of
// the interpreter (every load, store, return-address push, and relocation
// slot read is 8 bytes). Counter- and state-equivalent to Data(a, 8); for
// an 8-aligned a, also to Data(a+k, 1) for any k < 8, since both touch
// exactly the one line holding a.
//
// The fast path probes the MRU way of the TLB set and the L1D set directly:
// when both hold the line (the steady state of a hot loop) the access is a
// pair of MRU hits, which mutate nothing but the two hit counters — exactly
// what Access would have done. Any other outcome, and line straddles, take
// Data8Miss, the general path. Data8 is over the compiler's inlining
// budget, so the compiled engine open-codes the probe itself (MRUView) and
// calls Data8Miss when it fails.
func (m *Machine) Data8(a mem.Addr) {
	t, d := m.TLB, m.L1D
	tl := uint64(a) >> t.lineShift
	dl := uint64(a) >> d.lineShift
	if uint64(a)&(d.granularity-1) <= d.granularity-8 &&
		t.tags[(tl&t.setMask)*uint64(t.ways)] == tl|1<<63 &&
		d.tags[(dl&d.setMask)*uint64(d.ways)] == dl|1<<63 {
		t.Hits++
		d.Hits++
		return
	}
	m.Data8Miss(a)
}

// MRUView exposes the lookup geometry of the cache's MRU way so the
// compiled engine can open-code Data8's resident-line probe inside its own
// dispatch loop (Data8 is over the inlining budget). The returned tag
// array is the live one and its identity is stable — Flush and Reset clear
// it in place — so a caller may hold it for the Machine's lifetime. The probe
// contract is the one Data8's fast path relies on: for a non-straddling
// address a, if tags[(a>>lineShift&setMask)*ways] == a>>lineShift|1<<63 in
// both the TLB and the L1D, the access is a pair of MRU hits whose only
// state change is Hits++ on each (both exported fields).
func (c *Cache) MRUView() (tags []uint64, lineShift uint, setMask, ways uint64) {
	return c.tags, c.lineShift, c.setMask, uint64(c.ways)
}

// Data8Miss is Data8 without its MRU probe, for a caller that has made the
// probe itself and seen it fail: line straddles and anything that is not a
// double MRU hit. It is charged exactly as Data(a, 8) would be, whatever a
// is, so a caller never probes twice.
func (m *Machine) Data8Miss(a mem.Addr) {
	line := m.L1D.granularity
	la := uint64(a) &^ (line - 1)
	if uint64(a)-la > line-8 {
		// Straddles two lines; take the general path's loop shape.
		m.memAccess(mem.Addr(la), m.L1D)
		m.memAccess(mem.Addr(la+line), m.L1D)
		return
	}
	if !m.TLB.Access(mem.Addr(la)) {
		m.Cycles += m.Costs.TLBMiss
	}
	if m.L1D.Access(mem.Addr(la)) {
		return
	}
	m.missBelowL1(mem.Addr(la))
}
