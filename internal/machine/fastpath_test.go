package machine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// driveBoth replays the same access stream through two machines, one using
// the general Fetch/Data paths and one using the precomputed fast paths,
// and asserts identical counters after every step.
func driveBoth(t *testing.T, seed uint64, physical bool) {
	t.Helper()
	ref := New(DefaultConfig())
	fast := New(DefaultConfig())
	if physical {
		ref.SetPhysicalSeed(seed)
		fast.SetPhysicalSeed(seed)
	}
	r := rng.NewMarsaglia(seed)

	// Address pools that exercise aliasing: a few code regions (some above
	// 4 GiB), data spread over many pages, and line-straddling offsets.
	bases := []uint64{0x400000, 0x601000, 0x7f3200000000, 0x12345000}
	for step := 0; step < 20000; step++ {
		switch r.Uint64n(3) {
		case 0: // fetch
			a := mem.Addr(bases[r.Uint64n(uint64(len(bases)))] + r.Uint64n(1<<14))
			size := 1 + r.Uint64n(200)
			ref.Fetch(a, size)
			fast.FetchPre(fast.PrepareFetch(a, size, nil))
		case 1: // aligned-ish data
			a := mem.Addr(bases[r.Uint64n(uint64(len(bases)))] + r.Uint64n(1<<16)&^7)
			ref.Data(a, 8)
			fast.Data8(a)
		case 2: // arbitrary (possibly line-straddling) data
			a := mem.Addr(bases[r.Uint64n(uint64(len(bases)))] + r.Uint64n(1<<16))
			ref.Data(a, 8)
			fast.Data8(a)
		}
		if ref.Snapshot() != fast.Snapshot() {
			t.Fatalf("seed %d step %d: counters diverged\nref:\n%s\nfast:\n%s",
				seed, step, ref.Snapshot(), fast.Snapshot())
		}
	}
	// Cache state (not just counters) must match: probe a sample of lines.
	for i := 0; i < 2000; i++ {
		a := mem.Addr(bases[r.Uint64n(uint64(len(bases)))] + r.Uint64n(1<<16))
		for _, pair := range [][2]*Cache{{ref.L1I, fast.L1I}, {ref.L1D, fast.L1D}, {ref.TLB, fast.TLB}} {
			if pair[0].Probe(a) != pair[1].Probe(a) {
				t.Fatalf("seed %d: residency of %#x diverged in %s", seed, a, pair[0].cfg.Name)
			}
		}
	}
}

func TestFastPathsMatchGeneralPaths(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 2013} {
		driveBoth(t, seed, false)
		driveBoth(t, seed, true)
	}
}

// TestPrepareFetchSpansMatchFetch checks the line-splitting itself: every
// span Fetch would walk appears as exactly that PreLine sequence.
func TestPrepareFetchSpansMatchFetch(t *testing.T) {
	m := New(DefaultConfig())
	line := m.L1I.LineSize()
	for _, tc := range []struct {
		a    uint64
		size uint64
		want int
	}{
		{0x400000, 1, 1},
		{0x400000, 64, 1},
		{0x400000, 65, 2},
		{0x40003f, 2, 2},
		{0x400001, 200, 4},
	} {
		got := m.PrepareFetch(mem.Addr(tc.a), tc.size, nil)
		if len(got) != tc.want {
			t.Fatalf("PrepareFetch(%#x, %d): %d lines, want %d", tc.a, tc.size, len(got), tc.want)
		}
		for i, p := range got {
			want := mem.Addr((tc.a &^ (line - 1)) + uint64(i)*line)
			if p.Addr != want {
				t.Fatalf("PrepareFetch(%#x, %d): line %d at %#x, want %#x", tc.a, tc.size, i, p.Addr, want)
			}
		}
	}
}

// mruProbe is the compiled engine's inline Data8 probe, made from MRUView:
// for a non-straddling a whose line sits in the MRU way of both the TLB
// and the L1D it charges the two hits and reports true; otherwise it
// changes nothing.
func mruProbe(m *Machine, a mem.Addr) bool {
	line := m.L1D.LineSize()
	if uint64(a)&(line-1) > line-8 {
		return false
	}
	probe := func(c *Cache) bool {
		tags, shift, mask, ways := c.MRUView()
		l := uint64(a) >> shift
		return tags[(l&mask)*ways] == l|1<<63
	}
	if probe(m.TLB) && probe(m.L1D) {
		m.TLB.Hits++
		m.L1D.Hits++
		return true
	}
	return false
}

// sameState fails unless the two machines' counters, tag arrays and Gen
// counters are equal.
func sameState(t *testing.T, what string, ref, fast *Machine) {
	t.Helper()
	if ref.Snapshot() != fast.Snapshot() {
		t.Fatalf("%s: counters diverged\nref:\n%s\nfast:\n%s", what, ref.Snapshot(), fast.Snapshot())
	}
	for _, pair := range [][2]*Cache{{ref.L1I, fast.L1I}, {ref.L1D, fast.L1D}, {ref.L2, fast.L2}, {ref.L3, fast.L3}, {ref.TLB, fast.TLB}} {
		if !slices.Equal(pair[0].tags, pair[1].tags) || pair[0].Gen != pair[1].Gen {
			t.Fatalf("%s: %s tag array diverged", what, pair[0].cfg.Name)
		}
	}
}

// TestDataEntriesMatchGeneralPath drives twin machines with one seeded
// address stream: the reference through Data, the other through the
// compiled engine's entries — Data8Miss after a failed MRU probe in place
// of Data(a, 8), and Data8 on the aligned word in place of a one-byte
// Data(a, 1). The default and Core 2 configurations cover 4-, 8- and
// 16-way sets.
func TestDataEntriesMatchGeneralPath(t *testing.T) {
	for _, cfg := range []struct {
		name string
		c    Config
	}{{"default", DefaultConfig()}, {"core2", Core2Config()}} {
		for _, seed := range []uint64{1, 7, 2013} {
			ref, fast := New(cfg.c), New(cfg.c)
			ref.SetPhysicalSeed(seed)
			fast.SetPhysicalSeed(seed)
			r := rng.NewMarsaglia(seed)
			// A few hot regions, one above 4 GiB, dense enough to hit and
			// sparse enough to conflict in every level.
			bases := []uint64{0x601000, 0x7f3200000000, 0x12345000, 0x30000000}
			for step := 0; step < 30000; step++ {
				a := mem.Addr(bases[r.Uint64n(uint64(len(bases)))] + r.Uint64n(1<<17))
				if r.Uint64n(2) == 0 {
					ref.Data(a, 8)
					if !mruProbe(fast, a) {
						fast.Data8Miss(a)
					}
				} else {
					ref.Data(a, 1)
					fast.Data8(a &^ 7)
				}
				if step%1000 == 0 {
					sameState(t, fmt.Sprintf("%s seed %d step %d", cfg.name, seed, step), ref, fast)
				}
			}
			sameState(t, fmt.Sprintf("%s seed %d", cfg.name, seed), ref, fast)
			if ref.L1D.Evictions == 0 || ref.L3.Hits == 0 {
				t.Fatalf("%s seed %d: stream never evicted from L1D or hit in L3", cfg.name, seed)
			}
		}
	}
}

// TestCacheLRUMatchesRecencyModel holds Access to an independent model of
// true LRU: per set, the resident lines ordered by their last use. After
// every access the hit/miss outcome, the counters and the set's tags (MRU
// first) must match the model, for every cache shape of both machine
// configurations (4-, 8- and 16-way).
func TestCacheLRUMatchesRecencyModel(t *testing.T) {
	for _, mc := range []Config{DefaultConfig(), Core2Config()} {
		for _, cc := range []CacheConfig{mc.L1I, mc.L1D, mc.L2, mc.L3} {
			c := NewCache(cc)
			lastUse := map[uint64]int{} // resident line -> step of its last use
			var evictions uint64
			r := rng.NewMarsaglia(uint64(cc.Ways))
			// Lines from a few sets, about twice as many as fit in them.
			nsets := uint64(3)
			for step := 0; step < 20000; step++ {
				set := r.Uint64n(nsets)
				line := set + c.sets*r.Uint64n(2*uint64(cc.Ways))
				a := mem.Addr(line << c.lineShift)

				_, want := lastUse[line]
				var resident []uint64
				for l := range lastUse {
					if l&c.setMask == set {
						resident = append(resident, l)
					}
				}
				if !want && len(resident) == cc.Ways {
					lru := resident[0]
					for _, l := range resident {
						if lastUse[l] < lastUse[lru] {
							lru = l
						}
					}
					delete(lastUse, lru)
					evictions++
				}
				lastUse[line] = step

				if got := c.Access(a); got != want {
					t.Fatalf("%s %d-way step %d: line %#x hit=%v, model says %v", cc.Name, cc.Ways, step, line, got, want)
				}
				var order []uint64
				for l := range lastUse {
					if l&c.setMask == set {
						order = append(order, l)
					}
				}
				slices.SortFunc(order, func(x, y uint64) int { return lastUse[y] - lastUse[x] })
				tags := make([]uint64, cc.Ways)
				for i, l := range order {
					tags[i] = l | 1<<63
				}
				base := int(set) * cc.Ways
				if !slices.Equal(c.tags[base:base+cc.Ways], tags) {
					t.Fatalf("%s %d-way step %d: set %d holds %x, model %x", cc.Name, cc.Ways, step, set, c.tags[base:base+cc.Ways], tags)
				}
				if c.Evictions != evictions {
					t.Fatalf("%s %d-way step %d: %d evictions, model %d", cc.Name, cc.Ways, step, c.Evictions, evictions)
				}
			}
		}
	}
}
