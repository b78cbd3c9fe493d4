// Package campaign is the distributed benchmarking farm: a coordinator
// that shards the cells of a benchmark campaign across worker processes
// over HTTP/JSON, backed by the content-addressed result store
// (internal/store) so a cell is computed once ever — across workers,
// campaigns, and users — and a repeated campaign costs only store hits.
//
// The protocol is lease-based: a worker acquires a lease on one cell,
// heartbeats it while computing, and posts the cell's results back. A
// lease whose heartbeats stop (worker death, network partition) expires
// and the cell is requeued, up to a per-cell attempt cap — the same
// retry/watchdog posture the local engine applies per cell (PR 3). Because
// every cell is deterministic in its key, requeues, duplicate completions,
// and store races are all benign: any completion of a cell is THE
// completion.
//
// Determinism is the headline property: a campaign's merged artifact is
// assembled by running the ordinary collection path (bench.Collect) in
// store-only mode, so it is byte-identical whether the cells were computed
// by 1 worker, 40 workers, or served entirely from prior store hits — the
// acceptance test and the CI loopback smoke job pin this.
package campaign

import (
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/spec"
)

// Spec describes one campaign: a benchmark subset collected under one
// configuration with a fixed run count. It deliberately mirrors
// bench.CollectOptions' fixed-run subset — adaptive stopping is a local
// feedback loop and does not distribute — so a campaign artifact is
// exactly what `szgate run` with the same flags would produce.
type Spec struct {
	// Benchmarks is the suite subset, in artifact order. Names must be
	// unique and resolvable against spec.FullSuite().
	Benchmarks []string `json:"benchmarks"`
	// Config is the experimental cell configuration shared by every
	// benchmark. Its engine picks what workers run, but not the cells: a
	// golden cell's key leaves the engine out, so a block either engine
	// computed serves the campaign. Throughput is rejected — host
	// wall-clock telemetry is non-golden and would break the byte-identity
	// contract.
	Config experiment.Config `json:"config"`
	// Runs is the fixed sample count per benchmark.
	Runs int `json:"runs"`
	// Seed is the master seed; per-benchmark seed bases derive from it via
	// bench.SeedBase.
	Seed uint64 `json:"seed"`
	// Commit labels the merged artifact (optional).
	Commit string `json:"commit,omitempty"`
	// Tenant labels the campaign's owner for fair scheduling and quota
	// accounting. Empty means DefaultTenant. The label does not enter any
	// cell key: a cell computed for one tenant is a store hit for every
	// other, and the merged artifact is tenant-independent.
	Tenant string `json:"tenant,omitempty"`
}

// DefaultTenant is the tenant label applied to campaigns that carry none.
const DefaultTenant = "default"

// tenantOf normalizes a spec's tenant label.
func tenantOf(s Spec) string {
	if s.Tenant == "" {
		return DefaultTenant
	}
	return s.Tenant
}

// Validate rejects specs the farm cannot soundly serve.
func (s *Spec) Validate() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("campaign: spec names no benchmarks")
	}
	seen := map[string]bool{}
	for _, name := range s.Benchmarks {
		if seen[name] {
			return fmt.Errorf("campaign: benchmark %q listed twice", name)
		}
		seen[name] = true
		if _, ok := BenchByName(name); !ok {
			return fmt.Errorf("campaign: unknown benchmark %q", name)
		}
	}
	if s.Runs < 1 {
		return fmt.Errorf("campaign: runs=%d, need at least 1", s.Runs)
	}
	if s.Config.Throughput {
		return fmt.Errorf("campaign: Throughput is host-local, non-golden telemetry; campaigns collect golden samples only")
	}
	if s.Config.Profile {
		return fmt.Errorf("campaign: Profile inflates every stored block with per-function tables; profile locally with szprof instead")
	}
	return nil
}

// Cells enumerates the campaign's cells in artifact order: one per
// benchmark, each with its derived seed base and its key, which local
// collection and the result store share.
func (s *Spec) Cells() []CellSpec {
	out := make([]CellSpec, 0, len(s.Benchmarks))
	for _, name := range s.Benchmarks {
		base := bench.SeedBase(s.Seed, name)
		out = append(out, CellSpec{
			Bench:    name,
			Runs:     s.Runs,
			SeedBase: base,
			Key:      experiment.CellKey(name, s.Config, s.Runs, base),
		})
	}
	return out
}

// CollectOptions returns the local-collection options this spec mirrors;
// running bench.Collect with them (in store-only mode on the coordinator,
// or directly on one machine) yields the campaign's artifact.
func (s *Spec) CollectOptions() (bench.CollectOptions, error) {
	suite := make([]spec.Benchmark, 0, len(s.Benchmarks))
	for _, name := range s.Benchmarks {
		b, ok := BenchByName(name)
		if !ok {
			return bench.CollectOptions{}, fmt.Errorf("campaign: unknown benchmark %q", name)
		}
		suite = append(suite, b)
	}
	return bench.CollectOptions{
		Suite:  suite,
		Config: s.Config,
		Runs:   s.Runs,
		Seed:   s.Seed,
		Commit: s.Commit,
	}, nil
}

// CellSpec is one unit of farm work: a single benchmark's sample block.
type CellSpec struct {
	Bench    string `json:"bench"`
	Runs     int    `json:"runs"`
	SeedBase uint64 `json:"seed_base"`
	// Key is the cell's experiment.CellKey: local collection's
	// fingerprint and the result store's address.
	Key string `json:"key"`
}

// BenchByName resolves a benchmark name against the full suite (the 18
// paper benchmarks plus the five C++ ones).
func BenchByName(name string) (spec.Benchmark, bool) {
	for _, b := range spec.FullSuite() {
		if b.Name == name {
			return b, true
		}
	}
	return spec.Benchmark{}, false
}

// SuiteNames returns the names of the given benchmarks, for building specs
// from resolved suites.
func SuiteNames(suite []spec.Benchmark) []string {
	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Name
	}
	return names
}

// AllBenchNames lists every resolvable benchmark name, sorted — for error
// messages and CLI help.
func AllBenchNames() []string {
	var names []string
	for _, b := range spec.FullSuite() {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	return names
}
