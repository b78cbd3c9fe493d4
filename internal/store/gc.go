package store

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
)

// GCOptions configures a store garbage collection.
type GCOptions struct {
	// DryRun reports what would be evicted without deleting anything.
	DryRun bool
	// SampleKeys bounds GCReport.Evicted's key sample (default 10; negative
	// disables the sample).
	SampleKeys int
	// Force runs the pass even when the store's coordination lease is held.
	// By default GC refuses (see LeaseHeldError): deleting blocks under a
	// live coordinator races its journal writes and store re-probes.
	Force bool
}

// LeaseHeldError is returned by GC when the store's coordination lease is
// currently held and Force was not set.
type LeaseHeldError struct {
	Info LeaseInfo
}

func (e *LeaseHeldError) Error() string {
	return fmt.Sprintf("store: gc: coordination lease held by %s (epoch %d, expires in %s); a live coordinator may be writing — pass Force to override",
		e.Info.Holder, e.Info.Epoch, e.Info.ExpiresIn.Round(time.Millisecond))
}

// GCReport summarizes one GC pass. The counts are deterministic given the
// store contents (golden under the obs discipline).
type GCReport struct {
	// Scanned is every block file the pass examined.
	Scanned int `json:"scanned"`
	// Kept blocks carry the current semantics generation.
	Kept int `json:"kept"`
	// Evicted blocks were stale: a key without the current
	// SemanticsGeneration, such as every block older builds wrote under an
	// engine-tagged key. With DryRun they are only counted.
	Evicted int `json:"evicted"`
	// Quarantined counts blocks that were unreadable or failed integrity
	// checks: moved to <dir>/quarantine/ on a real run (never silently
	// deleted — a corrupt block is evidence, not garbage), merely counted
	// on a dry run.
	Quarantined int `json:"quarantined"`
	// BytesReclaimed totals the evicted block file sizes.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// EvictedSample lists up to SampleKeys evicted keys for human output.
	EvictedSample []string `json:"evicted_sample,omitempty"`
	// DryRun echoes the option so reports are self-describing.
	DryRun bool `json:"dry_run"`
}

// staleKey reports whether a store key's suffix names a semantics
// generation other than the current one. Keys without the |gen=… suffix
// predate the store's key schema entirely and are stale by definition;
// generation-1 keys, which carried an |engine=… tag, are stale by their
// generation.
func staleKey(key string) (stale bool, reason string) {
	genIdx := strings.LastIndex(key, "|gen=")
	if genIdx < 0 {
		return true, "no semantics generation in key"
	}
	gen, err := strconv.Atoi(key[genIdx+len("|gen="):])
	if err != nil {
		return true, "unparsable semantics generation"
	}
	if gen != experiment.SemanticsGeneration {
		return true, fmt.Sprintf("semantics generation %d, current %d", gen, experiment.SemanticsGeneration)
	}
	return false, ""
}

// GC walks the block tree and evicts blocks whose key is stale — a
// SemanticsGeneration other than the running build's. Such blocks can
// never be served again (the current key schema cannot address them), so
// they are pure disk overhead in a long-lived farm store. Corrupt blocks found along the way are
// quarantined, exactly as by the index rebuild. After a non-dry run the
// index is rewritten from the blocks the walk kept, so it names each of
// them — including ones other handles wrote — and no evicted one.
func (s *Store) GC(opts GCOptions) (GCReport, error) {
	if opts.SampleKeys == 0 {
		opts.SampleKeys = 10
	}
	rep := GCReport{DryRun: opts.DryRun}
	if !opts.Force && !opts.DryRun {
		if info, err := s.Coordination().Observe(time.Now()); err == nil && info.Held {
			return rep, &LeaseHeldError{Info: info}
		}
	}
	blocks, damaged, err := s.scanBlocks("gc", opts.DryRun)
	if err != nil {
		return rep, fmt.Errorf("store: gc: %w", err)
	}
	rep.Scanned = len(blocks) + damaged
	rep.Quarantined = damaged
	var kept, evict []scannedBlock
	for _, b := range blocks {
		stale, reason := staleKey(b.Key)
		if !stale {
			kept = append(kept, b)
			continue
		}
		rep.BytesReclaimed += b.Size
		if opts.SampleKeys > 0 && len(rep.EvictedSample) < opts.SampleKeys {
			rep.EvictedSample = append(rep.EvictedSample, b.Key)
		}
		s.warnf("gc: evicting %s: %s", b.Key, reason)
		evict = append(evict, b)
	}
	rep.Kept, rep.Evicted = len(kept), len(evict)
	if !opts.DryRun {
		for _, b := range evict {
			if err := os.Remove(b.path); err != nil {
				return rep, fmt.Errorf("store: gc: evicting %s: %w", b.path, err)
			}
		}
		if err := s.replaceIndex(kept); err != nil {
			s.warnf("gc: rewriting index: %v (blocks are unaffected)", err)
		}
	}
	s.metrics().Counter("store.gc.scanned").Add(uint64(rep.Scanned))
	s.metrics().Counter("store.gc.kept").Add(uint64(rep.Kept))
	s.metrics().Counter("store.gc.evicted").Add(uint64(rep.Evicted))
	s.metrics().Counter("store.gc.bytes_reclaimed").Add(uint64(rep.BytesReclaimed))
	return rep, nil
}
