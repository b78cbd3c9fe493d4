package campaign

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/store"
)

// testSpec is a small two-benchmark campaign, cheap enough to compute
// several times in one test run.
func testSpec() Spec {
	return Spec{
		Benchmarks: []string{"astar", "bzip2"},
		Config:     experiment.Config{Scale: 0.05},
		Runs:       3,
		Seed:       2013,
	}
}

// acquire asks c for a lease, failing the test on an error.
func acquire(tb testing.TB, c *Coordinator, worker string) AcquireResponse {
	tb.Helper()
	resp, err := c.Acquire(worker)
	if err != nil {
		tb.Fatalf("acquire for %s: %v", worker, err)
	}
	return resp
}

// newFarm builds a coordinator over a fresh store and serves it over a
// loopback HTTP server.
func newFarm(t *testing.T, opts CoordinatorOptions) (*Coordinator, *store.Store, *Client) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	opts.Store = st
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, st, NewClient(ts.URL)
}

// runWorkers runs n idle-exiting workers against the client and waits for
// all of them to drain the farm.
func runWorkers(t *testing.T, client *Client, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Client:   client,
			Name:     "w" + string(rune('0'+i)),
			Poll:     10 * time.Millisecond,
			IdleExit: true,
			Obs:      obs.NewScope(),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
}

// TestFarmByteIdentity pins the headline property: a campaign's merged
// artifact is byte-identical whether computed locally, by 1 worker, by 4
// concurrent workers, or served entirely from store hits.
func TestFarmByteIdentity(t *testing.T) {
	spec := testSpec()

	// Baseline: the ordinary local collection path.
	opts, err := spec.CollectOptions()
	if err != nil {
		t.Fatalf("collect options: %v", err)
	}
	art, err := bench.Collect(context.Background(), opts)
	if err != nil {
		t.Fatalf("local collect: %v", err)
	}
	baseline, err := art.Encode()
	if err != nil {
		t.Fatalf("encode baseline: %v", err)
	}

	for _, workers := range []int{1, 4} {
		c, _, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
		resp, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("%d workers: submit: %v", workers, err)
		}
		if resp.Cells != len(spec.Benchmarks) || resp.StoreHits != 0 {
			t.Fatalf("%d workers: submit cells=%d hits=%d, want %d/0",
				workers, resp.Cells, resp.StoreHits, len(spec.Benchmarks))
		}
		runWorkers(t, client, workers)

		st, err := client.WaitDone(context.Background(), resp.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("%d workers: wait: %v", workers, err)
		}
		if st.State != StateDone {
			t.Fatalf("%d workers: campaign state %q: %+v", workers, st.State, st)
		}
		merged, err := client.Artifact(context.Background(), resp.ID)
		if err != nil {
			t.Fatalf("%d workers: artifact: %v", workers, err)
		}
		if !bytes.Equal(merged, baseline) {
			t.Fatalf("%d workers: merged artifact differs from local collection\nfarm:\n%s\nlocal:\n%s",
				workers, merged, baseline)
		}

		// Resubmitting the identical campaign must be served entirely from
		// the store: done immediately, zero leases, identical bytes.
		resp2, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("resubmit: %v", err)
		}
		if resp2.StoreHits != resp2.Cells {
			t.Fatalf("resubmit store hits=%d, want all %d cells", resp2.StoreHits, resp2.Cells)
		}
		st2, err := client.Status(context.Background(), resp2.ID)
		if err != nil {
			t.Fatalf("resubmit status: %v", err)
		}
		if st2.State != StateDone || st2.Done != resp2.Cells {
			t.Fatalf("resubmitted campaign not immediately done: %+v", st2)
		}
		merged2, err := client.Artifact(context.Background(), resp2.ID)
		if err != nil {
			t.Fatalf("resubmit artifact: %v", err)
		}
		if !bytes.Equal(merged2, baseline) {
			t.Fatalf("store-hit artifact differs from local collection")
		}
		// The second submission must not have granted any lease.
		if got := c.metrics().Counter("campaign.leases.granted").Value(); got != uint64(resp.Cells) {
			t.Fatalf("leases granted = %d, want %d (resubmission must not dispatch)", got, resp.Cells)
		}
	}
}

// TestResubmitHealsDamagedBlock truncates one stored block of a finished
// campaign and submits the campaign again. The submit probe rejects the
// block, a worker recomputes the cell, and the recomputed block must
// replace the damaged one: the artifact is byte-identical to the local
// collection rather than failing on a cell missing from the store.
func TestResubmitHealsDamagedBlock(t *testing.T) {
	spec := testSpec()
	opts, err := spec.CollectOptions()
	if err != nil {
		t.Fatalf("collect options: %v", err)
	}
	art, err := bench.Collect(context.Background(), opts)
	if err != nil {
		t.Fatalf("local collect: %v", err)
	}
	baseline, err := art.Encode()
	if err != nil {
		t.Fatalf("encode baseline: %v", err)
	}

	_, st, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	if _, err := client.Submit(context.Background(), spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	runWorkers(t, client, 1)
	blocks, err := filepath.Glob(filepath.Join(st.Dir(), "blocks", "*", "*.json"))
	if err != nil || len(blocks) != len(spec.Benchmarks) {
		t.Fatalf("blocks %v (err %v), want one per benchmark", blocks, err)
	}
	buf, err := os.ReadFile(blocks[0])
	if err != nil {
		t.Fatalf("read block: %v", err)
	}
	if err := os.WriteFile(blocks[0], buf[:len(buf)/2], 0o644); err != nil {
		t.Fatalf("truncate block: %v", err)
	}

	resp, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if resp.StoreHits != resp.Cells-1 {
		t.Fatalf("resubmit store hits=%d of %d cells, want all but the damaged one", resp.StoreHits, resp.Cells)
	}
	runWorkers(t, client, 1)
	status, err := client.WaitDone(context.Background(), resp.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != StateDone {
		t.Fatalf("resubmitted campaign state %q: %+v", status.State, status)
	}
	merged, err := client.Artifact(context.Background(), resp.ID)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if !bytes.Equal(merged, baseline) {
		t.Fatalf("healed artifact differs from local collection\nfarm:\n%s\nlocal:\n%s", merged, baseline)
	}
}

// TestFarmEvents checks the campaign event stream is obs-wire JSONL and
// records the submission and completion.
func TestFarmEvents(t *testing.T) {
	_, _, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	resp, err := client.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	runWorkers(t, client, 2)
	var buf bytes.Buffer
	if err := client.Events(context.Background(), resp.ID, false, &buf); err != nil {
		t.Fatalf("events: %v", err)
	}
	log := buf.String()
	for _, want := range []string{
		`"msg":"campaign submitted"`,
		`"msg":"lease granted"`,
		`"msg":"cell computed"`, // worker telemetry folded into the stream
		`"msg":"campaign complete"`,
	} {
		if !strings.Contains(log, want) {
			t.Fatalf("event log missing %s:\n%s", want, log)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if !strings.HasPrefix(line, `{"`) || !strings.HasSuffix(line, "}") {
			t.Fatalf("event line is not a JSON object: %q", line)
		}
	}
}

// fakeResults builds deterministic placeholder results for scheduling
// tests that never assemble an artifact.
func fakeResults(n int) []experiment.RunResult {
	out := make([]experiment.RunResult, n)
	for i := range out {
		out[i] = experiment.RunResult{Seconds: float64(i) + 1, Cycles: uint64(i) + 10}
	}
	return out
}

// TestWorkerErrorRequeuesThenFails drives a cell through the retry cap:
// each reported failure requeues until MaxAttempts, then the campaign
// fails.
func TestWorkerErrorRequeuesThenFails(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Store: st, MaxAttempts: 3, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	spec := testSpec()
	spec.Benchmarks = []string{"astar"}
	id, _, _, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		resp := acquire(t, c, "flaky")
		if resp.Lease == nil {
			t.Fatalf("attempt %d: no lease granted", attempt)
		}
		if resp.Lease.Attempt != attempt {
			t.Fatalf("lease attempt = %d, want %d", resp.Lease.Attempt, attempt)
		}
		if err := c.Complete(resp.Lease.ID, CompleteRequest{Worker: "flaky", Error: "boom"}); err != nil {
			t.Fatalf("attempt %d: complete: %v", attempt, err)
		}
		status, _ := c.Status(id)
		if attempt < 3 {
			if status.Pending != 1 {
				t.Fatalf("attempt %d: cell not requeued: %+v", attempt, status)
			}
		} else if status.State != StateFailed || status.Failed != 1 {
			t.Fatalf("campaign not failed after %d attempts: %+v", attempt, status)
		}
	}
	if got := c.metrics().Counter("campaign.requeues").Value(); got != 2 {
		t.Fatalf("requeues = %d, want 2", got)
	}
	// A failed farm reports no work remaining, so idle-exit workers drain.
	if resp := acquire(t, c, "flaky"); resp.Lease != nil || resp.Remaining != 0 {
		t.Fatalf("failed campaign still dispatches: %+v", resp)
	}
}

// TestLeaseExpiryRequeues advances an injected clock past the lease TTL
// and checks the cell is requeued for another worker — and that the
// original worker's late completion is still accepted.
func TestLeaseExpiryRequeues(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	clock := time.Unix(1700000000, 0)
	c, err := NewCoordinator(CoordinatorOptions{
		Store: st, LeaseTTL: 30 * time.Second, Obs: obs.NewScope(),
		now: func() time.Time { return clock },
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	spec := testSpec()
	spec.Benchmarks = []string{"astar"}
	id, _, _, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	first := acquire(t, c, "slow")
	if first.Lease == nil {
		t.Fatalf("no lease granted")
	}
	// Heartbeats extend the deadline.
	clock = clock.Add(20 * time.Second)
	if !c.Heartbeat(first.Lease.ID) {
		t.Fatalf("in-TTL heartbeat rejected")
	}
	// Silence past the TTL expires the lease and requeues the cell.
	clock = clock.Add(31 * time.Second)
	second := acquire(t, c, "fast")
	if second.Lease == nil {
		t.Fatalf("expired cell not re-leased")
	}
	if second.Lease.Attempt != 2 {
		t.Fatalf("re-lease attempt = %d, want 2", second.Lease.Attempt)
	}
	if c.Heartbeat(first.Lease.ID) {
		t.Fatalf("expired lease accepted a heartbeat")
	}
	if got := c.metrics().Counter("campaign.heartbeats.missed").Value(); got != 1 {
		t.Fatalf("heartbeats.missed = %d, want 1", got)
	}

	// The slow worker finishes anyway: its results are deterministic, so the
	// late completion resolves the cell.
	if err := c.Complete(first.Lease.ID, CompleteRequest{Worker: "slow", Results: fakeResults(spec.Runs)}); err != nil {
		t.Fatalf("late completion rejected: %v", err)
	}
	status, _ := c.Status(id)
	if status.State != StateDone {
		t.Fatalf("campaign not done after late completion: %+v", status)
	}
	// The second worker's duplicate completion is a no-op, not an error.
	if err := c.Complete(second.Lease.ID, CompleteRequest{Worker: "fast", Results: fakeResults(spec.Runs)}); err != nil {
		t.Fatalf("duplicate completion rejected: %v", err)
	}
	if got := c.metrics().Counter("campaign.cells.completed").Value(); got != 1 {
		t.Fatalf("cells.completed = %d, want 1 (duplicate must not double-count)", got)
	}
}

// TestSpecValidation covers the farm's submission guards.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no benchmarks", func(s *Spec) { s.Benchmarks = nil }},
		{"duplicate benchmark", func(s *Spec) { s.Benchmarks = []string{"astar", "astar"} }},
		{"unknown benchmark", func(s *Spec) { s.Benchmarks = []string{"nonesuch"} }},
		{"zero runs", func(s *Spec) { s.Runs = 0 }},
		{"throughput", func(s *Spec) { s.Config.Throughput = true }},
		{"profile", func(s *Spec) { s.Config.Profile = true }},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
		}
	}
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestCellsMatchLocalDerivation checks the coordinator shards with exactly
// the local collection's seed derivation and cell key, and that the key —
// the store's address too — does not depend on the engine.
func TestCellsMatchLocalDerivation(t *testing.T) {
	spec := testSpec()
	cells := spec.Cells()
	if len(cells) != len(spec.Benchmarks) {
		t.Fatalf("got %d cells for %d benchmarks", len(cells), len(spec.Benchmarks))
	}
	walk := testSpec()
	walk.Config.Engine = interp.EngineWalk
	walkCells := walk.Cells()
	for i, cell := range cells {
		name := spec.Benchmarks[i]
		if cell.SeedBase != bench.SeedBase(spec.Seed, name) {
			t.Errorf("%s: seed base %d != bench.SeedBase", name, cell.SeedBase)
		}
		if want := experiment.CellKey(name, spec.Config, spec.Runs, cell.SeedBase); cell.Key != want {
			t.Errorf("%s: cell key %q != experiment.CellKey %q", name, cell.Key, want)
		}
		if walkCells[i].Key != cell.Key {
			t.Errorf("%s: walk-engine key %q != compiled-engine key %q", name, walkCells[i].Key, cell.Key)
		}
	}
}

// TestWorkerReplaysAcrossCampaigns runs one worker over two campaigns that
// share a benchmark, each a one-run cell at its own seed. The first cell
// records the trace its module keeps; the second campaign's cell, at
// another seed, replays it instead of interpreting the program again. Both
// merged artifacts must be byte-identical to walk-engine collections,
// which never record or replay.
func TestWorkerReplaysAcrossCampaigns(t *testing.T) {
	experiment.ResetCompileCache()
	scope := obs.NewScope()
	experiment.SetObs(scope)
	defer experiment.SetObs(nil)
	_, _, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	for i, want := range []struct{ replayed, kept uint64 }{{0, 1}, {1, 1}} {
		spec := Spec{Benchmarks: []string{"astar"}, Config: experiment.Config{Scale: 0.05}, Runs: 1, Seed: 2013 + uint64(i)}
		opts, err := spec.CollectOptions()
		if err != nil {
			t.Fatal(err)
		}
		opts.Config.Engine = interp.EngineWalk
		art, err := bench.Collect(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		runWorkers(t, client, 1)
		if _, err := client.WaitDone(context.Background(), resp.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		merged, err := client.Artifact(context.Background(), resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged, ref) {
			t.Fatalf("campaign %d: merged artifact differs from the walk engine's\nfarm:\n%s\nlocal:\n%s", i+1, merged, ref)
		}
		replayed := scope.Metrics.Counter("experiment.runs.replayed").Value()
		kept := scope.Metrics.Counter("experiment.traces.kept").Value()
		if replayed != want.replayed || kept != want.kept {
			t.Fatalf("after campaign %d: %d runs replayed and %d traces kept, want %d and %d",
				i+1, replayed, kept, want.replayed, want.kept)
		}
	}
}
