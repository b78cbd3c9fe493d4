// Package bench persists benchmark runs as versioned JSON artifacts and
// collects new ones through the parallel experiment engine. An artifact is
// the durable unit of the repo's performance evaluation: the raw
// per-benchmark samples plus everything needed to reproduce or merge them
// (seed, scale, optimization level, stabilizer configuration, commit).
// internal/gate compares two artifacts; cmd/szgate is the CLI.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/machine"
)

// SchemaVersion is bumped whenever the artifact layout changes; Read
// accepts every schema back to minSchemaVersion (older schemas are strict
// subsets: schema 2 added the optional metrics summary block; schema 3
// added per-run retired-instruction counts, the informational engine tag,
// and the non-golden host-seconds telemetry) and rejects anything newer
// than this build understands.
const SchemaVersion = 3

// minSchemaVersion is the oldest artifact schema this build still reads.
const minSchemaVersion = 1

// Unit values for Meta.Unit.
const (
	// UnitSimulatedSeconds marks samples measured by the simulator's cycle
	// clock (deterministic given the seed).
	UnitSimulatedSeconds = "simulated-seconds"
	// UnitWallSeconds marks samples measured with a host wall clock (the
	// testing.B harness's regeneration times).
	UnitWallSeconds = "wall-seconds"
)

// Meta describes how an artifact's samples were produced. Two artifacts are
// comparable when everything except Commit matches.
type Meta struct {
	Schema     int     `json:"schema"`
	Unit       string  `json:"unit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Level      string  `json:"level"`
	Stabilizer string  `json:"stabilizer"` // "native" or core.Options.EnabledString()
	Noise      float64 `json:"noise"`
	Commit     string  `json:"commit,omitempty"`
	// Engine records which interpreter engine measured the host times
	// (schema ≥ 3). Collection sets it only with throughput on: golden
	// samples are the same under both engines, and a store-served cell may
	// have been computed under either. It is informational and excluded
	// from comparability — a walk-engine artifact gates against a
	// compiled-engine baseline.
	Engine string `json:"engine,omitempty"`
}

// Stopped values for adaptive collection.
const (
	StoppedFixed  = "fixed"  // fixed run count, no adaptive stopping
	StoppedTarget = "target" // CI half-width target reached
	StoppedBudget = "budget" // run budget exhausted first
)

// Benchmark is one benchmark's sample set inside an artifact.
type Benchmark struct {
	Name     string    `json:"name"`
	SeedBase uint64    `json:"seed_base"`
	Runs     int       `json:"runs"`
	Seconds  []float64 `json:"seconds"`
	Cycles   []uint64  `json:"cycles,omitempty"`
	// Instructions holds per-run retired-instruction counts (schema ≥ 3).
	// Deterministic for a fixed seed, hence part of the golden artifact;
	// together with HostSeconds it yields simulator throughput.
	Instructions []uint64 `json:"instructions,omitempty"`
	// HostSeconds holds per-run host wall-clock interpreter times. Host
	// timing is machine- and engine-dependent telemetry — never golden —
	// so the JSON key carries the repo's _nongolden marker and collection
	// only fills it when CollectOptions.Throughput asks for it.
	HostSeconds []float64 `json:"host_seconds_nongolden,omitempty"`
	// Provenance is the farm's measurement pedigree for this entry
	// (schema ≥ 3): which worker computed the samples, under which
	// coordinator incarnation, after how many lease attempts, and how
	// long the cell waited and ran. Every field is environmental — the
	// JSON key carries the repo's _nongolden marker, the coordinator
	// attaches the block only when asked (?provenance=1), and golden
	// byte-identity checks strip it first.
	Provenance *Provenance `json:"provenance_nongolden,omitempty"`
	// Adaptive-stopping outcome (empty for fixed-count collection).
	Stopped string `json:"stopped,omitempty"`
	// RelHalfWidth is the achieved bootstrap CI half-width on the mean,
	// relative to the mean, at the stopping point (adaptive mode only).
	RelHalfWidth float64 `json:"rel_half_width,omitempty"`
}

// Provenance records where one benchmark's samples came from in a farm
// campaign — the measurement pedigree Kalibera-style statistics want
// alongside the raw numbers. The trace and span tie the entry back to
// the campaign's distributed trace; the rest identifies the worker, the
// coordinator epoch that accepted the completion, and the cell's
// scheduling history. All of it is environmental (non-golden).
type Provenance struct {
	Trace            string  `json:"trace,omitempty"`
	Span             string  `json:"span,omitempty"`
	Worker           string  `json:"worker,omitempty"`
	Coordinator      string  `json:"coordinator,omitempty"`
	Epoch            uint64  `json:"epoch,omitempty"`
	Attempts         int     `json:"attempts,omitempty"`
	StoreHit         bool    `json:"store_hit,omitempty"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	RunSeconds       float64 `json:"run_seconds,omitempty"`
}

// StripProvenance removes every benchmark's provenance block — the
// inverse of the coordinator's ?provenance=1 decoration, used when
// checking a decorated artifact against golden bytes.
func (a *Artifact) StripProvenance() {
	for i := range a.Benchmarks {
		a.Benchmarks[i].Provenance = nil
	}
}

// MetricsSummary is the optional (schema ≥ 2) machine-counter aggregate of
// a collection: every run's perf-stat snapshot summed over all benchmarks.
// Sums of per-run counters are order-independent and the per-run counters
// ride in result-store blocks, so the block is deterministic for a fixed
// seed at any worker count and across resumes from a store — it is part of
// the golden artifact, unlike wall-clock telemetry.
type MetricsSummary struct {
	TotalRuns int              `json:"total_runs"`
	Counters  machine.Counters `json:"counters"`
}

// add folds another summary into s.
func (s *MetricsSummary) add(o MetricsSummary) {
	s.TotalRuns += o.TotalRuns
	s.Counters = s.Counters.Add(o.Counters)
}

// Artifact is one collection run: metadata plus per-benchmark samples.
type Artifact struct {
	Meta       Meta        `json:"meta"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Metrics is the machine-counter summary block; nil in schema-1
	// artifacts and in collections that disabled it.
	Metrics *MetricsSummary `json:"metrics,omitempty"`
}

// Find returns the named benchmark entry, or nil.
func (a *Artifact) Find(name string) *Benchmark {
	for i := range a.Benchmarks {
		if a.Benchmarks[i].Name == name {
			return &a.Benchmarks[i]
		}
	}
	return nil
}

// normalize puts the artifact in canonical form: benchmarks sorted by name.
// Serialization is deterministic after normalization (struct fields encode
// in declaration order, floats in Go's shortest round-trip form), which is
// what makes Write→Read→Write byte-identical.
func (a *Artifact) normalize() {
	sort.Slice(a.Benchmarks, func(i, j int) bool {
		return a.Benchmarks[i].Name < a.Benchmarks[j].Name
	})
}

// Validate checks the artifact's invariants: a known schema, finite samples
// (JSON cannot carry NaN/Inf), consistent run counts, and unique names.
func (a *Artifact) Validate() error {
	if a.Meta.Schema < minSchemaVersion || a.Meta.Schema > SchemaVersion {
		return fmt.Errorf("bench: artifact schema %d, this build reads %d..%d",
			a.Meta.Schema, minSchemaVersion, SchemaVersion)
	}
	if a.Metrics != nil && a.Meta.Schema < 2 {
		return fmt.Errorf("bench: schema-%d artifact carries a metrics block (needs schema 2)", a.Meta.Schema)
	}
	if a.Meta.Schema < 3 && a.Meta.Engine != "" {
		return fmt.Errorf("bench: schema-%d artifact carries an engine tag (needs schema 3)", a.Meta.Schema)
	}
	if a.Metrics != nil && a.Metrics.TotalRuns < 0 {
		return fmt.Errorf("bench: metrics block has negative total_runs %d", a.Metrics.TotalRuns)
	}
	if a.Meta.Unit == "" {
		return fmt.Errorf("bench: artifact has no unit")
	}
	seen := map[string]bool{}
	for _, b := range a.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("bench: unnamed benchmark entry")
		}
		if seen[b.Name] {
			return fmt.Errorf("bench: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Runs != len(b.Seconds) {
			return fmt.Errorf("bench: %s: runs=%d but %d samples", b.Name, b.Runs, len(b.Seconds))
		}
		if len(b.Cycles) != 0 && len(b.Cycles) != len(b.Seconds) {
			return fmt.Errorf("bench: %s: %d cycle counts for %d samples", b.Name, len(b.Cycles), len(b.Seconds))
		}
		if len(b.Instructions) != 0 && len(b.Instructions) != len(b.Seconds) {
			return fmt.Errorf("bench: %s: %d instruction counts for %d samples", b.Name, len(b.Instructions), len(b.Seconds))
		}
		if len(b.HostSeconds) != 0 && len(b.HostSeconds) != len(b.Seconds) {
			return fmt.Errorf("bench: %s: %d host times for %d samples", b.Name, len(b.HostSeconds), len(b.Seconds))
		}
		if (len(b.Instructions) != 0 || len(b.HostSeconds) != 0 || b.Provenance != nil) && a.Meta.Schema < 3 {
			return fmt.Errorf("bench: schema-%d artifact carries schema-3 fields (instructions/host times/provenance) in %s", a.Meta.Schema, b.Name)
		}
		for i, h := range b.HostSeconds {
			if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
				return fmt.Errorf("bench: %s: host time %d is %v", b.Name, i, h)
			}
		}
		for i, s := range b.Seconds {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				return fmt.Errorf("bench: %s: sample %d is %v", b.Name, i, s)
			}
		}
	}
	return nil
}

// Encode returns the canonical serialized form: normalized, two-space
// indented JSON with a trailing newline. Equal artifacts encode to equal
// bytes regardless of the order benchmarks were added in.
func (a *Artifact) Encode() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	a.normalize()
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Write writes the canonical form to w.
func (a *Artifact) Write(w io.Writer) error {
	buf, err := a.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the canonical form to path.
func (a *Artifact) WriteFile(path string) error {
	buf, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// Read parses and validates an artifact.
func Read(r io.Reader) (*Artifact, error) {
	dec := json.NewDecoder(r)
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("bench: decode artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	a.normalize()
	return &a, nil
}

// ReadFile reads and validates the artifact at path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// ReadBytes parses and validates an artifact from memory.
func ReadBytes(buf []byte) (*Artifact, error) {
	return Read(bytes.NewReader(buf))
}

// Merge combines two artifacts collected under the same configuration into
// one. Benchmarks present in only one input are carried over; a benchmark
// present in both must be a continuation (b's seed base starting where a's
// samples end), and its samples are concatenated — the shape produced by
// extending a run with more samples or sharding a seed range. Commits may
// differ only if one is empty (a partial rerun on the same tree). Master
// seeds may differ — collecting a continuation requires a shifted master
// seed, and the per-benchmark seed-base check is the real guard; the merged
// artifact keeps a's seed.
func Merge(a, b *Artifact) (*Artifact, error) {
	ma, mb := a.Meta, b.Meta
	ca, cb := ma.Commit, mb.Commit
	ma.Commit, mb.Commit = "", ""
	ma.Seed, mb.Seed = 0, 0
	// Schema is a file-format property, not a collection property: a
	// schema-1 artifact extends fine with a schema-2 continuation. The
	// engine tag is informational (both engines collect identical samples),
	// so continuations may switch engines; the merged artifact keeps a's.
	ma.Schema, mb.Schema = 0, 0
	ma.Engine, mb.Engine = "", ""
	if ma != mb {
		return nil, fmt.Errorf("bench: merge: artifacts were collected under different configurations:\n  %+v\n  %+v", ma, mb)
	}
	commit := ca
	switch {
	case ca == cb, cb == "":
	case ca == "":
		commit = cb
	default:
		return nil, fmt.Errorf("bench: merge: artifacts from different commits %q and %q", ca, cb)
	}

	out := &Artifact{Meta: a.Meta}
	out.Meta.Commit = commit
	for _, ba := range a.Benchmarks {
		merged := ba
		if bb := b.Find(ba.Name); bb != nil {
			if bb.SeedBase != ba.SeedBase+uint64(ba.Runs) {
				return nil, fmt.Errorf("bench: merge: %s: second artifact's seed base %d is not a continuation of %d+%d runs",
					ba.Name, bb.SeedBase, ba.SeedBase, ba.Runs)
			}
			if (len(ba.Cycles) == 0) != (len(bb.Cycles) == 0) {
				return nil, fmt.Errorf("bench: merge: %s: one artifact has cycle counts, the other does not", ba.Name)
			}
			if (len(ba.Instructions) == 0) != (len(bb.Instructions) == 0) {
				return nil, fmt.Errorf("bench: merge: %s: one artifact has instruction counts, the other does not", ba.Name)
			}
			merged.Seconds = append(append([]float64(nil), ba.Seconds...), bb.Seconds...)
			merged.Cycles = append(append([]uint64(nil), ba.Cycles...), bb.Cycles...)
			merged.Instructions = append(append([]uint64(nil), ba.Instructions...), bb.Instructions...)
			// Host times are telemetry from two different collection runs;
			// concatenating them would suggest one coherent measurement, so
			// a merge drops them. Provenance goes with them: the merged
			// samples no longer have a single pedigree.
			merged.HostSeconds = nil
			merged.Provenance = nil
			merged.Runs = len(merged.Seconds)
			merged.Stopped, merged.RelHalfWidth = "", 0
		}
		out.Benchmarks = append(out.Benchmarks, merged)
	}
	for _, bb := range b.Benchmarks {
		if a.Find(bb.Name) == nil {
			out.Benchmarks = append(out.Benchmarks, bb)
		}
	}
	// Counter sums compose under concatenation; the block survives a merge
	// only when both halves carried one.
	if a.Metrics != nil && b.Metrics != nil {
		sum := *a.Metrics
		sum.add(*b.Metrics)
		out.Metrics = &sum
		if out.Meta.Schema < 2 {
			out.Meta.Schema = 2
		}
	}
	// The merged artifact needs the newer half's schema if it inherited
	// schema-3 fields (e.g. instruction counts from a carried-over entry).
	if b.Meta.Schema > out.Meta.Schema {
		out.Meta.Schema = b.Meta.Schema
	}
	out.normalize()
	return out, nil
}
