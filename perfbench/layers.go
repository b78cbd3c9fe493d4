package main

import (
	"sync"
	"time"

	"repro/internal/experiment"
)

// tracer records spans around the benchmark's calls into each layer: the
// total time and count per span name, and every duration for the names
// whose distribution is reported. A nil *tracer records nothing, which is
// how untraced rounds run.
type tracer struct {
	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int
	durs  map[string][]float64 // milliseconds
}

func newTracer() *tracer {
	return &tracer{total: map[string]time.Duration{}, count: map[string]int{}, durs: map[string][]float64{}}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.observe(name, time.Since(start)) }
}

// observe records one span of the given duration.
func (t *tracer) observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total[name] += d
	t.count[name]++
	t.durs[name] = append(t.durs[name], float64(d)/1e6)
}

func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total[name].Seconds()
}

func (t *tracer) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

// metricDef names one reported metric. Final metrics appear in the result
// line (and in BENCHMARK.json); the others are layer times that are zero on
// the workloads that bypass the layer, so they appear only in the printed
// table and the trajectory entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Final  bool
}

// endToEnd lists the end-to-end metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", true},
	// The gated cost of the work is its user CPU time. The other time
	// metrics are printed but not gated, because on a shared 2-vCPU VM they
	// move with the host more than with the code: the median round's wall
	// time moved by 25-40% of its median between runs of the same code
	// minutes apart, and farm-drain's system time, most of it creating
	// files on an ext4 file system without a journal, grows with how many
	// files anything deleted there in the last minutes (README.md).
	{"cpu_user_ms_per_cell", "ms", "lower", true},
	{"cpu_sys_ms_per_cell", "ms", "lower", false},
	{"wall_s", "s", "lower", false},
	{"sim_mips", "Minstr/s", "higher", false},
	{"cells_per_s", "1/s", "higher", false},
	{"op_p50_ms", "ms", "lower", false},
	// The tail moves with host contention far more than the median does
	// (run-to-run spread 0.3-0.4 of its median on a shared 2-vCPU VM, wider
	// than any bound a gate could use), so it is printed but not gated.
	{"op_tail_ms", "ms", "lower", false},
	{"peak_rss_mb", "MB", "lower", true},
}

// cpuPackages are the leaf packages whose self-time share the traced run's
// CPU profile reports; samples in any other package count as cpu.other.
var cpuPackages = []string{
	"interp", "machine", "core", "heap", "rng", "mem", "compiler",
	"experiment", "bench", "stats", "gate", "store", "campaign", "obs",
	"encoding_json", "net_http", "syscall", "runtime",
}

// perLayer lists the per-layer metrics of the traced run, layer by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"compiler.compile_s", "s", "lower", false},
		{"compiler.modules", "count", "lower", true},
		{"experiment.collect_s", "s", "lower", false},
		{"experiment.runs", "count", "higher", true},
		{"experiment.queue_wait_s", "s", "lower", false},
		{"experiment.run_overhead_ms", "ms", "lower", false},
		{"interp.run_s", "s", "lower", false},
		{"interp.instructions", "count", "lower", true},
		{"interp.ns_per_instr", "ns", "lower", false},
		{"interp.run_p50_ms", "ms", "lower", false},
		{"interp.run_tail_ms", "ms", "lower", false},
		{"machine.cycles", "count", "lower", true},
		{"machine.l1i_misses", "count", "lower", true},
		{"machine.l1d_misses", "count", "lower", true},
		{"machine.l2_misses", "count", "lower", true},
		{"machine.l3_misses", "count", "lower", true},
		{"machine.tlb_misses", "count", "lower", true},
		{"machine.mispredicts", "count", "lower", true},
		{"core.rerandomizations", "count", "lower", true},
		{"core.relocations", "count", "lower", true},
		{"gate.compare_s", "s", "lower", false},
		{"store.blocks", "count", "lower", true},
		{"store.index_bytes", "bytes", "lower", true},
		{"store.put_blocks", "count", "lower", true},
		{"store.put_bytes", "bytes", "lower", true},
		{"store.get_hits", "count", "higher", true},
		{"store.get_misses", "count", "lower", true},
		{"campaign.submit_server_p50_ms", "ms", "lower", false},
		{"campaign.acquire_server_p50_ms", "ms", "lower", false},
		{"campaign.complete_server_p50_ms", "ms", "lower", false},
		{"campaign.complete_server_tail_ms", "ms", "lower", false},
		{"campaign.artifact_server_p50_ms", "ms", "lower", false},
		{"campaign.submit_p50_ms", "ms", "lower", false},
		{"campaign.acquire_p50_ms", "ms", "lower", false},
		{"campaign.acquire_tail_ms", "ms", "lower", false},
		{"campaign.artifact_p50_ms", "ms", "lower", false},
		{"campaign.persist_writes", "count", "lower", true},
		{"campaign.journal_bytes", "bytes", "lower", true},
		{"campaign.leases_granted", "count", "lower", true},
		{"campaign.requeues", "count", "lower", true},
		{"campaign.fenced_writes", "count", "lower", true},
		{"campaign.events_unjournaled", "count", "lower", true},
		{"http.complete_overhead_p50_ms", "ms", "lower", false},
		{"http.complete_request_bytes", "bytes", "lower", true},
		{"go.alloc_mb", "MB", "lower", true},
		{"go.allocs_per_run", "count", "lower", true},
		{"go.gc_cycles", "count", "lower", true},
	}
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu." + p, "share", "lower", true})
	}
	return append(defs,
		metricDef{"cpu.other", "share", "lower", true},
		metricDef{"trace.overhead_frac", "fraction", "lower", true},
	)
}()

// workLayers reports the simulated work of a round: machine and runtime
// counters that depend only on seeds and configuration.
func workLayers(m map[string]float64, w simWork) {
	c := w.Counters
	m["interp.instructions"] = float64(c.Instructions)
	m["machine.cycles"] = float64(c.Cycles)
	m["machine.l1i_misses"] = float64(c.L1IMisses)
	m["machine.l1d_misses"] = float64(c.L1DMisses)
	m["machine.l2_misses"] = float64(c.L2Misses)
	m["machine.l3_misses"] = float64(c.L3Misses)
	m["machine.tlb_misses"] = float64(c.TLBMisses)
	m["machine.mispredicts"] = float64(c.DirectionMispredicts + c.BTBMispredicts)
	m["core.rerandomizations"] = float64(w.Rerands)
	m["core.relocations"] = float64(w.Relocations)
}

// collectLayers derives a traced collect round's layer metrics from the
// benchmark's spans, the engine's spans and counters, and the recorded
// per-run results. It returns nil for an untraced round.
func collectLayers(tr *tracer, cr *collectRound) map[string]float64 {
	if tr == nil {
		return nil
	}
	m := map[string]float64{}
	workLayers(m, cr.work)

	var compileUs, cellWorkerUs float64
	modules := 0
	for _, ev := range cr.scope.Trace.Events() {
		switch ev.Cat {
		case "compile":
			compileUs += ev.Dur
			modules++
		case "cell":
			// A cell's runs are spread over min(workers, runs) pool workers;
			// the cell occupies each of them for its whole span.
			runs, _ := ev.Args["runs"].(int)
			w := experiment.Parallelism()
			if runs < w {
				w = runs
			}
			cellWorkerUs += ev.Dur * float64(w)
		}
	}
	m["compiler.compile_s"] = compileUs / 1e6
	m["compiler.modules"] = float64(modules)
	m["experiment.collect_s"] = tr.seconds("experiment.collect")
	m["experiment.runs"] = float64(cr.work.Runs)
	if h, ok := cr.scope.Metrics.Snapshot(true).NonGolden["pool.queue.wait_seconds"]; ok {
		m["experiment.queue_wait_s"] = h.Sum
	}
	var runS float64
	var runMs []float64
	for _, r := range cr.results {
		runS += r.HostSeconds
		runMs = append(runMs, r.HostSeconds*1e3)
	}
	if n := len(cr.results); n > 0 {
		m["experiment.run_overhead_ms"] = (cellWorkerUs/1e6 - runS) / float64(n) * 1e3
	}
	m["interp.run_s"] = runS
	if c := cr.work.Counters.Instructions; c > 0 {
		m["interp.ns_per_instr"] = runS / float64(c) * 1e9
	}
	m["interp.run_p50_ms"] = median(runMs)
	m["interp.run_tail_ms"] = tailOf(runMs).Value
	m["gate.compare_s"] = tr.seconds("gate.compare")
	return m
}
