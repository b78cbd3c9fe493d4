// Command perfbench is the repository benchmark. It runs one workload —
// gate-quick, stabilized-levels or farm-drain — in one process through the
// repository's public packages, repeating rounds for a fixed measuring time,
// checks every round's outputs, and prints a metric table followed by one
// JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	perfbench --workload gate-quick --seed 2013 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 the rounds alternate untraced and traced: traced
// rounds carry spans around every call into a layer, the engine's counters
// and a CPU profile, and the metrics are the per-layer ones plus
// trace.overhead_frac, the traced rounds' median wall time relative to the
// untraced rounds'. A traced run also appends its per-layer table to the
// layer trajectory, .bench_build/trajectory.jsonl.
//
// The load is at most two threads: the experiment pool runs two workers and
// the farm drain two clients.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// workers is the experiment pool size and the farm's client count.
const workers = 2

// A run repeats its set-up at least minSetupReps times, and until the
// set-ups have taken minSetupSeconds, and reports the median, so that a
// short set-up (gate-quick's takes under 0.1 s) rests on more samples.
const (
	minSetupReps    = 3
	minSetupSeconds = 1.0
)

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload. It is idempotent: a run repeats it and
	// reports the median time.
	setup(ctx context.Context) error
	// round runs one measured round; tr is nil in untraced rounds.
	round(ctx context.Context, tr *tracer) (roundStats, error)
}

// roundStats is what one measured round observed.
type roundStats struct {
	wall         float64 // round wall time, s
	cpu          cpuTime // process CPU time over the same interval as wall
	busy         float64 // time the throughput metrics divide by, s
	setup        float64 // per-round set-up outside wall, s
	instructions uint64  // simulated instructions the round completed
	cells        int     // cells (one benchmark's sample block) completed
	ops          []float64
	work         simWork
	layers       map[string]float64 // traced rounds only
	extra        map[string]float64 // workload-specific table entries
}

func newWorkload(name string, seed uint64, t *tally) (workload, error) {
	switch name {
	case "gate-quick":
		return newGateQuick(seed, t), nil
	case "stabilized-levels":
		return newStabilizedLevels(seed, t), nil
	case "farm-drain":
		return newFarmDrain(seed, t), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want gate-quick, stabilized-levels or farm-drain)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "gate-quick, stabilized-levels or farm-drain")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the default reproduces BENCH_BASELINE.json")
	seconds := fs.Float64("seconds", 30, "measuring time; a run stops starting rounds near its end")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload w --seed n --seconds s --trace 0|1")
		return 2
	}
	t := &tally{}
	w, err := newWorkload(*name, *seed, t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, table, err := measure(context.Background(), w, *seconds, *trace == 1, t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range t.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	if *trace == 1 {
		if err := appendTrajectory(*name, *seed, *seconds, table); err != nil {
			fmt.Fprintf(stderr, "perfbench: trajectory: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %d\n", *name, *seed, *trace)
	for _, row := range table {
		fmt.Fprintln(stdout, row.String())
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the printed metric table.
type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

func (r row) String() string {
	s := fmt.Sprintf("  %-36s %14.6g %-9s n=%d", r.Name, r.Value, r.Unit, r.N)
	if r.Note != "" {
		s += "  " + r.Note
	}
	return s
}

// measure sets the workload up, runs rounds until the measuring time has
// passed, and reduces the rounds to the result line and the table.
func measure(ctx context.Context, w workload, seconds float64, traced bool, t *tally) (result, []row, error) {
	experiment.SetParallelism(workers)
	var setups []float64
	for spent := 0.0; len(setups) < minSetupReps || spent < minSetupSeconds; {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
	}
	// One round, checked but untimed, lets heap growth pass before the
	// measured rounds.
	if _, err := w.round(ctx, nil); err != nil {
		return result{}, nil, fmt.Errorf("warm-up round: %w", err)
	}
	freshPages()

	var plain, tracedRounds []roundStats
	cpu := map[string]int64{}
	start := time.Now()
	var roundSecs []float64
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		t0 := time.Now()
		st, err := tracedRound(ctx, w, tr, cpu)
		if err != nil {
			return result{}, nil, err
		}
		roundSecs = append(roundSecs, time.Since(t0).Seconds())
		freshPages()
		if tr != nil {
			tracedRounds = append(tracedRounds, st)
		} else {
			plain = append(plain, st)
		}
		// Stop when less than half a median round is left, so a run
		// measures close to the measuring time instead of overrunning it
		// by up to a whole round.
		elapsed := time.Since(start).Seconds()
		if elapsed+median(roundSecs)/2 >= seconds && (!traced || len(tracedRounds) > 0) {
			break
		}
	}
	for _, st := range tracedRounds {
		t.op(st.work == plain[0].work, "traced round's simulated work differs from the untraced round's")
	}
	table, defs := endToEndTable(plain, setups), endToEnd
	if traced {
		table, defs = layerTable(plain, tracedRounds, cpu), perLayer
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		if d.Final {
			res.Metrics[d.Name] = metric{Value: valueOf(table, d.Name), Unit: d.Unit}
		}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	table = append(table, row{Name: "error_rate", Value: float64(t.failed) / math.Max(1, float64(t.attempted)),
		Unit: "fraction", N: t.attempted, Note: "failed ÷ attempted operations and checks"})
	return res, table, nil
}

// tracedRound runs one round; when traced it also profiles the CPU and
// measures the Go allocator, folding both into the round's layers.
func tracedRound(ctx context.Context, w workload, tr *tracer, cpu map[string]int64) (roundStats, error) {
	if tr == nil {
		return w.round(ctx, nil)
	}
	var before, after runtime.MemStats
	var prof bytes.Buffer
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return roundStats{}, err
	}
	st, err := w.round(ctx, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return st, err
	}
	self, err := selfSamples(prof.Bytes())
	if err != nil {
		return st, err
	}
	for fn, n := range self {
		cpu[cpuBucket(fn)] += n
	}
	st.layers["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	st.layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	if st.work.Runs > 0 {
		st.layers["go.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(st.work.Runs)
	}
	return st, nil
}

// endToEndTable reduces untraced rounds to the end-to-end metrics: each is
// the median over rounds of the per-round value.
func endToEndTable(rounds []roundStats, setups []float64) []row {
	var setupRound, wall, userPerCell, sysPerCell, mips, cps, p50, tl []float64
	var tailNote string
	for _, st := range rounds {
		setupRound = append(setupRound, st.setup)
		wall = append(wall, st.wall)
		userPerCell = append(userPerCell, st.cpu.user*1e3/float64(st.cells))
		sysPerCell = append(sysPerCell, st.cpu.sys*1e3/float64(st.cells))
		mips = append(mips, float64(st.instructions)/st.busy/1e6)
		cps = append(cps, float64(st.cells)/st.busy)
		p50 = append(p50, median(st.ops))
		tt := tailOf(st.ops)
		tl = append(tl, tt.Value)
		tailNote = fmt.Sprintf("per round %s; median over rounds", tt)
	}
	n := len(rounds)
	rows := []row{
		{"setup_s", median(setups) + median(setupRound), "s", len(setups),
			fmt.Sprintf("median of %d set-ups + median per-round set-up", len(setups))},
		{"cpu_user_ms_per_cell", median(userPerCell), "ms", n, "process user CPU time ÷ cells completed"},
		{"cpu_sys_ms_per_cell", median(sysPerCell), "ms", n, "process system CPU time ÷ cells completed"},
		{"wall_s", median(wall), "s", n, "median round"},
		{"sim_mips", median(mips), "Minstr/s", n, "simulated instructions ÷ busy time"},
		{"cells_per_s", median(cps), "1/s", n, "cells completed ÷ busy time"},
		{"op_p50_ms", median(p50), "ms", n, fmt.Sprintf("per round p50 of n=%d; median over rounds", len(rounds[0].ops))},
		{"op_tail_ms", median(tl), "ms", n, tailNote},
		{"peak_rss_mb", peakRSSMB(), "MB", 1, "VmHWM"},
	}
	for _, name := range extraNames(rounds) {
		var xs []float64
		for _, st := range rounds {
			xs = append(xs, st.extra[name])
		}
		rows = append(rows, row{Name: name, Value: median(xs), Unit: unitOf(name), N: n, Note: "median over rounds"})
	}
	return rows
}

// layerTable reduces traced rounds to the per-layer metrics: the median
// over traced rounds, CPU shares over every traced sample, and the tracing
// overhead against the untraced rounds.
func layerTable(plain, traced []roundStats, cpu map[string]int64) []row {
	var rows []row
	for _, d := range perLayer {
		r := row{Name: d.Name, Unit: d.Unit, N: len(traced), Note: "median over traced rounds"}
		switch {
		case strings.HasPrefix(d.Name, "cpu."):
			var total int64
			for _, n := range cpu {
				total += n
			}
			r.N = int(total)
			r.Note = "self-time share of CPU profile samples"
			if total > 0 {
				r.Value = float64(cpu[strings.TrimPrefix(d.Name, "cpu.")]) / float64(total)
			}
		case d.Name == "trace.overhead_frac":
			var pw, tw []float64
			for _, st := range plain {
				pw = append(pw, st.wall)
			}
			for _, st := range traced {
				tw = append(tw, st.wall)
			}
			r.Value = median(tw)/median(pw) - 1
			r.N = len(plain) + len(traced)
			r.Note = fmt.Sprintf("median traced round %.4gs vs untraced %.4gs", median(tw), median(pw))
		default:
			var xs []float64
			for _, st := range traced {
				xs = append(xs, st.layers[d.Name])
			}
			r.Value = median(xs)
		}
		rows = append(rows, r)
	}
	return rows
}

func extraNames(rounds []roundStats) []string {
	var names []string
	for name := range rounds[0].extra {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// unitOf infers a table-only metric's unit from its name suffix.
func unitOf(name string) string {
	for _, suf := range []string{"ms", "s"} {
		if strings.HasSuffix(name, "_"+suf) {
			return suf
		}
	}
	return "count"
}

func valueOf(rows []row, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.Value
		}
	}
	return 0
}

// freshPages returns the process's free heap memory to the operating
// system, so that the next round runs on physical pages placed anew.
// Physical placement decides which memory shares a cache set, and it stays
// fixed while a process keeps its pages: single runs of stabilized-levels
// read 68-72 ms of user CPU per cell in some processes and 81-84 ms in
// others, each steady from round to round. Placing the pages anew before
// every round lets each run's median average over placements, as
// STABILIZER re-randomizes layout to average over it; with it five runs
// read 80-85 ms. The pages are faulted in again inside the next round, which
// costs system time but no user time.
func freshPages() { debug.FreeOSMemory() }

// cpuTime is process CPU time, in seconds, split into user and system
// (kernel) time.
type cpuTime struct{ user, sys float64 }

func (c cpuTime) sub(d cpuTime) cpuTime { return cpuTime{c.user - d.user, c.sys - d.sys} }

// processCPU returns the CPU time the process has used so far. Unlike wall
// time it leaves out time the guest scheduler or the hypervisor gave to
// anything else.
func processCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{math.NaN(), math.NaN()}
	}
	return cpuTime{time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds()}
}

// peakRSSMB reads the process's peak resident set size (VmHWM), in MB.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// trajectoryPath is the layer trajectory traced runs append to.
const trajectoryPath = ".bench_build/trajectory.jsonl"

// appendTrajectory appends one traced run's per-layer table as a JSON line.
func appendTrajectory(name string, seed uint64, seconds float64, table []row) error {
	entry := struct {
		Time     string  `json:"time"`
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		GoArch   string  `json:"goarch"`
		CPUs     int     `json:"cpus"`
		Table    []row   `json:"table"`
	}{time.Now().UTC().Format(time.RFC3339), name, seed, seconds, runtime.GOARCH, runtime.NumCPU(), table}
	line, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(trajectoryPath), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(trajectoryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
