package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// farmCampaigns is how many campaigns a farm-drain round submits up front.
// The store's cost per Put grows with its size, so a round's time grows
// with the square of this; on a 2-vCPU VM a round took about 17 s at 120
// campaigns and 5-7 s at 60, too few rounds per run for a steady median,
// while 40 keeps rounds near 3 s and the store still grows to 720 blocks.
const farmCampaigns = 40

// farmWorkDir holds each round's fresh result store.
const farmWorkDir = ".bench_build/farm"

// farmDrain drains a loaded coordinator: one fenced campaign.HAServer,
// built the way `szfarm serve` builds it, on a loopback listener over a
// fresh store. Each round submits farmCampaigns campaigns (every benchmark,
// one run, scale 0.02, a distinct seed each), drains them with two
// closed-loop clients that acquire a lease and complete it, and fetches
// every campaign's artifact. The results the clients post are computed in
// set-up by a local collection of each campaign, so no simulation runs in
// the measured phase.
type farmDrain struct {
	seed   uint64
	tally  *tally
	specs  []campaign.Spec
	want   [][]byte  // each campaign's locally collected artifact
	rec    *recorder // precomputed cell results by cell key
	rounds int
}

func newFarmDrain(seed uint64, t *tally) *farmDrain {
	f := &farmDrain{seed: seed, tally: t}
	for i := 0; i < farmCampaigns; i++ {
		f.specs = append(f.specs, campaign.Spec{
			Benchmarks: campaign.SuiteNames(spec.Suite()),
			Config:     experiment.Config{Scale: 0.02, Level: compiler.O2},
			Runs:       1,
			Seed:       seed + uint64(i),
		})
	}
	return f
}

// setup precomputes every cell and each campaign's expected artifact with
// the ordinary local collection path. A one-run campaign keeps only one
// pool worker busy, so the campaigns are collected two at a time.
func (f *farmDrain) setup(ctx context.Context) error {
	experiment.ResetCompileCache()
	f.rec = newRecorder()
	f.want = make([][]byte, len(f.specs))
	ctx = experiment.WithCellStore(ctx, f.rec)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(f.specs) && errs[w] == nil; i += workers {
				f.want[i], errs[w] = collectEncoded(ctx, f.specs[i])
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// collectEncoded collects a campaign's spec locally and encodes the
// artifact.
func collectEncoded(ctx context.Context, sp campaign.Spec) ([]byte, error) {
	opts, err := sp.CollectOptions()
	if err != nil {
		return nil, err
	}
	art, err := bench.Collect(ctx, opts)
	if err != nil {
		return nil, err
	}
	return art.Encode()
}

// farm is one round's running coordinator and the clients' view of it.
type farm struct {
	dir    string
	st     *store.Store
	scope  *obs.Scope
	srv    *http.Server
	url    string
	client *http.Client
	stop   context.CancelFunc
	done   chan error // election loop and HTTP server exits
	mw     *timing
}

// startFarm opens a fresh store and serves a fenced HA coordinator on a
// loopback port, returning once it has promoted itself to active.
func startFarm(dir string, tr *tracer) (*farm, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	scope := obs.NewScope()
	st.Obs = scope
	ha, err := campaign.NewHAServer(campaign.HAOptions{
		Coordinator: campaign.CoordinatorOptions{Store: st, Obs: scope},
		Identity:    "perfbench",
		Obs:         scope,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	f := &farm{
		dir: dir, st: st, scope: scope, stop: stop, done: make(chan error, 2),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		mw:     &timing{next: ha, tr: tr, server: map[uint64]float64{}},
	}
	f.srv = &http.Server{Handler: f.mw}
	go func() { f.done <- ha.Run(ctx) }()
	go func() {
		if err := f.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			f.done <- err
			return
		}
		f.done <- nil
	}()
	for deadline := time.Now().Add(10 * time.Second); ha.Role() != campaign.RoleActive; {
		if time.Now().After(deadline) {
			return f, errors.Join(errors.New("coordinator did not become active"), f.close())
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the coordinator and the server, waits for both, and removes
// the store.
func (f *farm) close() error {
	f.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	for i := 0; i < 2; i++ {
		err = errors.Join(err, <-f.done)
	}
	f.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(f.dir))
}

func (f *farm) newClient() *campaign.Client {
	c := campaign.NewClient(f.url)
	c.HTTP = f.client
	return c
}

func (f *farmDrain) round(ctx context.Context, tr *tracer) (st roundStats, err error) {
	f.rounds++
	setupStart := time.Now()
	fm, err := startFarm(filepath.Join(farmWorkDir, fmt.Sprintf("%d-%d", os.Getpid(), f.rounds)), tr)
	if err != nil {
		return st, err
	}
	defer func() { err = errors.Join(err, fm.close()) }()
	st.setup = time.Since(setupStart).Seconds()
	client := fm.newClient()
	lat := newTracer() // client-side latencies, kept in every round

	start, cpu0 := time.Now(), processCPU()
	ids := make([]string, len(f.specs))
	for i, sp := range f.specs {
		t0 := time.Now()
		resp, serr := client.Submit(ctx, sp)
		lat.observe("submit", time.Since(t0))
		f.tally.op(serr == nil, "submit campaign %d: %v", i, serr)
		ids[i] = resp.ID
	}
	drainStart := time.Now()
	var mu sync.Mutex
	var delivered simWork
	var instructions uint64
	completeMs := map[uint64]float64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			f.drain(ctx, fm.newClient(), name, lat, func(id uint64, ms float64, results []experiment.RunResult) {
				mu.Lock()
				defer mu.Unlock()
				completeMs[id] = ms
				delivered.add(results)
				for _, r := range results {
					instructions += r.Instructions
				}
			})
		}(fmt.Sprintf("client-%d", w))
	}
	wg.Wait()
	drain := time.Since(drainStart)
	for i, id := range ids {
		t0 := time.Now()
		buf, aerr := client.Artifact(ctx, id)
		lat.observe("artifact", time.Since(t0))
		f.tally.op(aerr == nil, "artifact %s: %v", id, aerr)
		f.tally.op(aerr != nil || bytes.Equal(buf, f.want[i]), "farm-drain: campaign %s artifact differs from its local collection", id)
	}
	st.wall, st.cpu = time.Since(start).Seconds(), processCPU().sub(cpu0)
	st.busy = drain.Seconds()

	counters := fm.scope.Metrics.Snapshot(true)
	count := func(name string) float64 {
		if v, ok := counters.Counters[name]; ok {
			return float64(v)
		}
		return float64(counters.NonGoldenCounters[name])
	}
	fenced := count("campaign.fenced.writes") + count("campaign.persist.fenced")
	f.tally.op(fenced == 0, "farm-drain: %g fenced writes", fenced)
	f.tally.op(count("campaign.requeues") == 0, "farm-drain: %g requeues", count("campaign.requeues"))

	st.instructions = instructions
	st.cells = len(completeMs)
	st.work = delivered
	for _, ms := range completeMs {
		st.ops = append(st.ops, ms)
	}
	st.extra = map[string]float64{
		"submit_s":        lat.seconds("submit"),
		"drain_s":         drain.Seconds(),
		"artifact_p50_ms": median(lat.samples("artifact")),
	}
	if tr == nil {
		return st, nil
	}

	m := map[string]float64{}
	workLayers(m, delivered)
	m["experiment.runs"] = float64(delivered.Runs)
	m["store.blocks"] = float64(fm.st.Len())
	m["store.index_bytes"] = float64(fileSize(filepath.Join(fm.dir, "index.json")))
	m["store.put_blocks"] = count("store.put.blocks")
	m["store.put_bytes"] = count("store.put.bytes")
	m["store.get_hits"] = count("store.get.hits")
	m["store.get_misses"] = count("store.get.misses")
	for _, route := range []string{"submit", "acquire", "complete", "artifact"} {
		m["campaign."+route+"_server_p50_ms"] = median(tr.samples("campaign." + route))
	}
	m["campaign.complete_server_tail_ms"] = tailOf(tr.samples("campaign.complete")).Value
	m["campaign.submit_p50_ms"] = median(lat.samples("submit"))
	m["campaign.acquire_p50_ms"] = median(lat.samples("acquire"))
	m["campaign.acquire_tail_ms"] = tailOf(lat.samples("acquire")).Value
	m["campaign.artifact_p50_ms"] = median(lat.samples("artifact"))
	m["campaign.persist_writes"] = count("campaign.persist.writes")
	m["campaign.journal_bytes"] = float64(treeSize(filepath.Join(fm.dir, "campaigns")))
	m["campaign.leases_granted"] = count("campaign.leases.granted")
	m["campaign.requeues"] = count("campaign.requeues")
	m["campaign.fenced_writes"] = fenced
	m["campaign.events_unjournaled"] = count("campaign.events.unjournaled")
	fm.mw.mu.Lock()
	m["http.complete_overhead_p50_ms"] = median(pairOverhead(completeMs, fm.mw.server))
	if n := len(fm.mw.server); n > 0 {
		m["http.complete_request_bytes"] = float64(fm.mw.completeBytes) / float64(n)
	}
	fm.mw.mu.Unlock()
	st.layers = m
	return st, nil
}

// drain is one closed-loop load-generator client: it acquires a lease,
// completes it with the precomputed results, and repeats until the farm
// reports no remaining work. done receives each completion's lease id,
// client-observed latency and posted results.
func (f *farmDrain) drain(ctx context.Context, c *campaign.Client, name string, lat *tracer, done func(uint64, float64, []experiment.RunResult)) {
	for {
		t0 := time.Now()
		resp, err := c.Acquire(ctx, name)
		lat.observe("acquire", time.Since(t0))
		f.tally.op(err == nil, "%s: acquire: %v", name, err)
		if err != nil {
			return
		}
		if resp.Lease == nil {
			if resp.Remaining == 0 {
				return
			}
			// The other client holds the last leases; poll again shortly.
			time.Sleep(time.Millisecond)
			continue
		}
		req, rerr := completeRequest(resp.Lease, f.rec, name)
		f.tally.op(rerr == nil, "%s: %v", name, rerr)
		t0 = time.Now()
		cerr := c.Complete(ctx, resp.Lease.ID, req)
		d := time.Since(t0)
		f.tally.op(cerr == nil, "%s: complete lease %d: %v", name, resp.Lease.ID, cerr)
		if rerr == nil && cerr == nil {
			done(resp.Lease.ID, float64(d)/1e6, req.Results)
		}
	}
}

// completeRequest builds the completion a worker would post for a lease:
// the cell's precomputed results, or — for a cell set-up did not compute —
// a compute error, which the coordinator requeues like any failed cell.
func completeRequest(l *campaign.Lease, rec *recorder, worker string) (campaign.CompleteRequest, error) {
	now := time.Now().UnixNano()
	req := campaign.CompleteRequest{
		Worker:         worker,
		IdempotencyKey: fmt.Sprintf("lease-%d", l.ID),
		Trace:          l.Trace,
		Span:           l.Span,
		SpanRecord: &campaign.SpanRecord{Trace: l.Trace, Span: l.Span, Worker: worker,
			StartUnixNs: now, EndUnixNs: now},
	}
	results := rec.get(experiment.CellKey(l.Bench, l.Config, l.Runs, l.SeedBase))
	if len(results) != l.Runs {
		req.Error = fmt.Sprintf("cell %s (seed base %d) was not precomputed", l.Bench, l.SeedBase)
		return req, errors.New(req.Error)
	}
	req.Results = results
	return req, nil
}

// timing is the benchmark-side middleware that times the coordinator's
// handling of each request in traced rounds, by route, and keeps each
// completion's server time by lease id.
type timing struct {
	next http.Handler
	tr   *tracer // nil in untraced rounds

	mu            sync.Mutex
	server        map[uint64]float64 // lease id -> complete handling, ms
	completeBytes int64
}

func (m *timing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	m.next.ServeHTTP(w, r)
	d := time.Since(start)
	route, lease := routeOf(r.Method, r.URL.Path)
	if route == "" {
		return
	}
	m.tr.observe("campaign."+route, d)
	if route == "complete" {
		m.mu.Lock()
		m.server[lease] = float64(d) / 1e6
		m.completeBytes += r.ContentLength
		m.mu.Unlock()
	}
}

// routeOf names the farm protocol route of a request — submit, acquire,
// complete or artifact, "" for others — and the lease id of a completion.
func routeOf(method, path string) (string, uint64) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case method == http.MethodPost && path == "/v1/campaigns":
		return "submit", 0
	case method == http.MethodPost && path == "/v1/leases":
		return "acquire", 0
	case method == http.MethodPost && len(parts) == 4 && parts[1] == "leases" && parts[3] == "complete":
		id, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return "", 0
		}
		return "complete", id
	case method == http.MethodGet && len(parts) == 4 && parts[1] == "campaigns" && parts[3] == "artifact":
		return "artifact", 0
	}
	return "", 0
}

// pairOverhead pairs client- and server-side latencies by lease id and
// returns, for every lease seen on both sides, the client latency minus
// the server latency: time spent outside the coordinator's handler.
func pairOverhead(client, server map[uint64]float64) []float64 {
	var out []float64
	for id, c := range client {
		if s, ok := server[id]; ok {
			out = append(out, c-s)
		}
	}
	return out
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// treeSize sums the sizes of the regular files under dir.
func treeSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n += fileSize(path)
		}
		return nil
	})
	return n
}
