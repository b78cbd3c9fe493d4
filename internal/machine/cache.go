// Package machine models the microarchitectural state that makes memory
// layout matter: set-associative caches, a TLB, and a branch predictor with
// aliasing, plus a cycle cost model.
//
// The paper attributes layout-induced performance variation to exactly these
// structures ("caches and branch predictors ... are sensitive to the
// addresses of the objects they manage", §1). This package reproduces that
// sensitivity: two hot functions whose code lands in the same cache sets
// conflict; branches whose addresses share predictor slots alias; programs
// spread over more pages pressure the TLB. The default configuration mirrors
// the paper's Intel Core i3-550 test machine.
package machine

import (
	"fmt"

	"repro/internal/mem"
)

// CacheConfig describes one level of set-associative cache.
type CacheConfig struct {
	Name     string
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line (power of two)
	Ways     int    // associativity
}

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("machine: %s line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("machine: %s has %d ways", c.Name, c.Ways)
	}
	sets := c.Size / (c.LineSize * uint64(c.Ways))
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("machine: %s set count %d is not a positive power of two", c.Name, sets)
	}
	return nil
}

// Cache is a set-associative cache with true-LRU replacement. Tags are kept
// most-recently-used first within each set, so a hit is a short scan and a
// move-to-front.
type Cache struct {
	cfg         CacheConfig
	sets        uint64
	setMask     uint64
	lineShift   uint
	ways        int
	tags        []uint64 // sets × ways, MRU first; 0 means empty
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	granularity uint64 // line size, or page size for a TLB

	// Gen counts tag-array mutations: it advances whenever a line is
	// installed, promoted within its set, or flushed. An MRU-way hit leaves
	// Gen unchanged, so an unchanged Gen proves every previously verified
	// MRU-resident line is still MRU-resident — the invariant FetchSteady's
	// callers use to skip re-probing a fetch span (see fastpath.go). Gen is
	// not a statistic: it is excluded from Counters and never recorded.
	Gen uint64
}

// NewCache builds a cache from cfg. It panics on an invalid configuration;
// configurations in this repository are static.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.LineSize * uint64(cfg.Ways))
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{
		cfg:         cfg,
		sets:        sets,
		setMask:     sets - 1,
		lineShift:   shift,
		ways:        cfg.Ways,
		tags:        make([]uint64, sets*uint64(cfg.Ways)),
		granularity: cfg.LineSize,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() uint64 { return c.sets }

// LineSize returns the line (or page) granularity in bytes.
func (c *Cache) LineSize() uint64 { return c.granularity }

// line converts an address to its line number.
func (c *Cache) line(a mem.Addr) uint64 { return uint64(a) >> c.lineShift }

// SetOf returns the set index an address maps to; exported for tests that
// construct deliberate conflicts.
func (c *Cache) SetOf(a mem.Addr) uint64 { return c.line(a) & c.setMask }

// Access looks up the line containing a, updating LRU state, and reports
// whether it hit. On a miss the line is installed, evicting the LRU way.
func (c *Cache) Access(a mem.Addr) bool {
	line := c.line(a)
	tag := line | 1<<63 // bit 63 marks a valid entry; line numbers never reach it
	base := int((line & c.setMask)) * c.ways
	if c.tags[base] == tag {
		c.Hits++
		return true
	}
	return c.accessCold(c.tags[base:base+c.ways], tag)
}

// Probe reports whether the line containing a is resident without touching
// LRU state or counters.
func (c *Cache) Probe(a mem.Addr) bool {
	line := c.line(a)
	tag := line | 1<<63
	base := int((line & c.setMask)) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Flush empties the cache but keeps counters.
func (c *Cache) Flush() {
	c.Gen++
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// ResetCounters zeroes the hit/miss/eviction counters.
func (c *Cache) ResetCounters() { c.Hits, c.Misses, c.Evictions = 0, 0, 0 }

// reset returns the cache to its NewCache state, clearing tags in place.
func (c *Cache) reset() {
	clear(c.tags)
	c.ResetCounters()
	c.Gen = 0
}

// NewTLB builds a TLB: a cache whose "lines" are pages.
func NewTLB(entries, ways int) *Cache {
	c := NewCache(CacheConfig{
		Name:     "TLB",
		Size:     uint64(entries) * mem.PageSize,
		LineSize: mem.PageSize,
		Ways:     ways,
	})
	return c
}
