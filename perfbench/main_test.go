package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/compiler"
	"repro/internal/experiment"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{144, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {2160, 99},
		{9999, 99}, {10000, 99.9},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		if p > 50 && float64(c.n)*(100-p)/100 < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 down to 1: unsorted input
	}
	if got := percentile(xs, 50); got != 100.5 {
		t.Errorf("median = %g, want 100.5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if xs[0] != 200 {
		t.Errorf("percentile reordered its input")
	}
	tl := tailOf(xs)
	if tl.P != 95 || tl.N != 200 || tl.Value != percentile(xs, 95) {
		t.Errorf("tailOf = %+v, want p95 of n=200", tl)
	}
	if got := tl.String(); got != "p95 of n=200" {
		t.Errorf("tail string %q", got)
	}
}

func TestCPUBucket(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/interp.(*cvm).exec":               "interp",
		"repro/internal/machine.(*Cache).Access":          "machine",
		"repro/internal/experiment.(*Pool).forEach.func1": "experiment",
		"repro/internal/spec.astar":                       "other",
		"repro/internal/stats.sum[...]":                   "stats",
		"runtime.mallocgc":                                "runtime",
		"runtime/internal/atomic.Load":                    "runtime",
		"internal/runtime/atomic.(*Uint32).Load":          "runtime",
		"internal/runtime/syscall.Syscall6":               "syscall",
		"syscall.Syscall":                                 "syscall",
		"internal/syscall/unix.Fcntl":                     "syscall",
		"encoding/json.(*encodeState).marshal":            "encoding_json",
		"net/http.(*conn).serve":                          "net_http",
		"net/http/internal.(*chunkedReader).Read":         "net_http",
		"net.(*conn).Read":                                "other",
		"main.main":                                       "other",
		"compress/flate.(*compressor).deflate":            "other",
	} {
		if got := cpuBucket(sym); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", sym, got, want)
		}
	}
}

// spin burns CPU in this package so a profile has samples to attribute.
//
//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestSelfSamplesAttributesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for fn, n := range self {
		total += n
		if fn == "repro/perfbench.spin" || strings.HasPrefix(fn, "time.") {
			mine += n
		}
	}
	if total == 0 {
		t.Skip("no profile samples collected")
	}
	if mine*2 < total {
		t.Errorf("only %d of %d samples attributed to spin: %v", mine, total, self)
	}
}

func TestSelfSamplesRejectsGarbage(t *testing.T) {
	if _, err := selfSamples([]byte("not a profile")); err == nil {
		t.Error("want an error for a non-gzip profile")
	}
}

func TestPairOverhead(t *testing.T) {
	client := map[uint64]float64{1: 5, 2: 7.5, 3: 4}
	server := map[uint64]float64{1: 3, 2: 7, 9: 1}
	got := pairOverhead(client, server)
	if len(got) != 2 || median(got) != (2+0.5)/2 {
		t.Errorf("pairOverhead = %v, want the pairs of leases 1 and 2 only (2 and 0.5)", got)
	}
	if len(pairOverhead(client, nil)) != 0 {
		t.Error("without server latencies nothing pairs")
	}
}

func TestRouteOf(t *testing.T) {
	for _, c := range []struct {
		method, path string
		route        string
		lease        uint64
	}{
		{"POST", "/v1/campaigns", "submit", 0},
		{"POST", "/v1/leases", "acquire", 0},
		{"POST", "/v1/leases/42/complete", "complete", 42},
		{"POST", "/v1/leases/42/heartbeat", "", 0},
		{"POST", "/v1/leases/x/complete", "", 0},
		{"GET", "/v1/campaigns/c0001/artifact", "artifact", 0},
		{"GET", "/v1/campaigns/c0001", "", 0},
	} {
		route, lease := routeOf(c.method, c.path)
		if route != c.route || lease != c.lease {
			t.Errorf("routeOf(%s %s) = %q, %d; want %q, %d", c.method, c.path, route, lease, c.route, c.lease)
		}
	}
}

func TestCompleteRequestForUnknownCellIsAnError(t *testing.T) {
	rec := newRecorder()
	cfg := experiment.Config{Scale: 0.02, Level: compiler.O2}
	results := []experiment.RunResult{{Instructions: 7}}
	if err := rec.Store(context.Background(), experiment.CellKey("astar", cfg, 1, 11), 1, 11, results); err != nil {
		t.Fatal(err)
	}
	l := &campaign.Lease{ID: 3, Bench: "astar", Runs: 1, SeedBase: 11, Config: cfg}
	req, err := completeRequest(l, rec, "client-0")
	if err != nil || len(req.Results) != 1 || req.Error != "" || req.IdempotencyKey != "lease-3" {
		t.Fatalf("precomputed cell: req %+v, err %v", req, err)
	}
	l.SeedBase = 12
	req, err = completeRequest(l, rec, "client-0")
	if err == nil || req.Error == "" || req.Results != nil {
		t.Fatalf("cell not precomputed: req %+v, err %v; want a compute error and no results", req, err)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.ops(3)
	tl.op(true, "unused")
	tl.op(false, "check %d failed", 7)
	if tl.attempted != 5 || tl.failed != 1 || len(tl.errs) != 1 || tl.errs[0] != "check 7 failed" {
		t.Errorf("tally: attempted %d, failed %d, errs %q", tl.attempted, tl.failed, tl.errs)
	}
}

// TestMetricListsMatchBenchmarkJSON pins the metrics the result line
// reports, in order and with their units, to the ones BENCHMARK.json
// declares, and its workloads to the ones the driver knows.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []decl, defs []metricDef) {
		var want []decl
		for _, d := range defs {
			if d.Final {
				want = append(want, decl{d.Name, d.Unit, d.Better})
			}
		}
		if len(declared) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the driver reports %d", kind, len(declared), len(want))
		}
		for i := range want {
			if declared[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the driver reports %+v", kind, i, declared[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name, defaultSeed, &tally{}); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
}
