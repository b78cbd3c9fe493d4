package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/store"
)

// computeLease computes a lease's cell through the real engine — the same
// path a worker takes — so crash tests put genuine blocks in the store.
func computeLease(t *testing.T, l *Lease) []experiment.RunResult {
	t.Helper()
	b, ok := BenchByName(l.Bench)
	if !ok {
		t.Fatalf("unknown bench %q", l.Bench)
	}
	cc, err := experiment.CompileBench(b, l.Config)
	if err != nil {
		t.Fatalf("compile %s: %v", l.Bench, err)
	}
	ss, err := cc.Collect(context.Background(), l.Runs, l.SeedBase)
	if err != nil {
		t.Fatalf("collect %s: %v", l.Bench, err)
	}
	return ss.Results
}

// localBaseline collects the spec locally — the bytes every farm topology
// must reproduce.
func localBaseline(t *testing.T, spec Spec) []byte {
	t.Helper()
	opts, err := spec.CollectOptions()
	if err != nil {
		t.Fatalf("collect options: %v", err)
	}
	art, err := bench.Collect(context.Background(), opts)
	if err != nil {
		t.Fatalf("local collect: %v", err)
	}
	buf, err := art.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf
}

// futureClock is a coordinator clock far enough ahead of the crashed
// process's wall clock that every persisted lease is already expired.
func futureClock() time.Time { return time.Now().Add(time.Hour) }

// TestCoordinatorRestartResumesCampaign is the acceptance test for durable
// coordinator state: a coordinator killed without warning mid-campaign (one
// cell done, one leased to a worker that never reports back) is restarted
// against the same store directory; workers finish the campaign, no cell is
// lost or double-counted, and the merged artifact is byte-identical to an
// uninterrupted local run.
func TestCoordinatorRestartResumesCampaign(t *testing.T) {
	spec := testSpec()
	baseline := localBaseline(t, spec)
	dir := t.TempDir()

	// Incarnation A: complete the first cell, lease the second, then crash
	// (the coordinator object is simply abandoned — kill -9 has no goodbye).
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	coordA, err := NewCoordinator(CoordinatorOptions{Store: stA, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator A: %v", err)
	}
	id, cells, hits, err := coordA.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if cells != 2 || hits != 0 {
		t.Fatalf("submit cells=%d hits=%d, want 2/0", cells, hits)
	}
	first := acquire(t, coordA, "doomed")
	if first.Lease == nil {
		t.Fatalf("no first lease")
	}
	if err := coordA.Complete(first.Lease.ID, CompleteRequest{
		Worker: "doomed", Results: computeLease(t, first.Lease),
	}); err != nil {
		t.Fatalf("complete first cell: %v", err)
	}
	second := acquire(t, coordA, "doomed")
	if second.Lease == nil {
		t.Fatalf("no second lease")
	}
	// Crash here: the second cell is leased, its worker will never report.

	// Incarnation B: same store directory, fresh process. Its clock is an
	// hour ahead, so the orphaned lease is stale on arrival.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	coordB, err := NewCoordinator(CoordinatorOptions{
		Store: stB, Obs: obs.NewScope(), now: futureClock,
	})
	if err != nil {
		t.Fatalf("coordinator B: %v", err)
	}
	if got := coordB.metrics().Counter("campaign.restored").Value(); got != 1 {
		t.Fatalf("campaigns restored = %d, want 1", got)
	}
	stat, ok := coordB.Status(id)
	if !ok {
		t.Fatalf("campaign %s not restored", id)
	}
	if stat.State != StateRunning || stat.Done != 1 {
		t.Fatalf("restored status %+v, want running with 1 done", stat)
	}

	ts := httptest.NewServer(coordB.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	runWorkers(t, client, 2)

	final, err := client.WaitDone(context.Background(), id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateDone || final.Done != cells {
		t.Fatalf("final status %+v, want done %d/%d", final, cells, cells)
	}
	// Exactly one cell crossed the restart un-done, and exactly one
	// completion happened in incarnation B: nothing lost, nothing repeated.
	if got := coordB.metrics().Counter("campaign.cells.completed").Value(); got != 1 {
		t.Fatalf("B completed %d cells, want 1", got)
	}
	// The dead worker's lease must have been retired, not double-dispatched.
	if got := stB.Len(); got != cells {
		t.Fatalf("store holds %d blocks, want %d", got, cells)
	}

	merged, err := client.Artifact(context.Background(), id)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if !bytes.Equal(merged, baseline) {
		t.Fatalf("artifact after crash+restart differs from uninterrupted local run")
	}
	// The journal survives on disk.
	if _, err := os.Stat(filepath.Join(dir, "campaigns", id+".events.jsonl")); err != nil {
		t.Fatalf("campaign journal missing: %v", err)
	}
}

// TestRestartRecoversStoreOnlyCompletions covers the narrow crash window
// between a completion's store write and its state journal: the block is in
// the store but the persisted cell still says "leased". Restart must
// recover the cell as done from the store — the store is the source of
// truth for finished work.
func TestRestartRecoversStoreOnlyCompletions(t *testing.T) {
	spec := testSpec()
	spec.Benchmarks = spec.Benchmarks[:1]
	dir := t.TempDir()
	stA, _ := store.Open(dir)
	coordA, err := NewCoordinator(CoordinatorOptions{Store: stA, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator A: %v", err)
	}
	id, _, _, err := coordA.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	grant := acquire(t, coordA, "w")
	if grant.Lease == nil {
		t.Fatalf("no lease")
	}
	// The worker's Put lands...
	cell := spec.Cells()[0]
	if err := stA.Put(cell.Key, cell.Runs, cell.SeedBase, fakeResults(cell.Runs)); err != nil {
		t.Fatalf("put: %v", err)
	}
	// ...and the coordinator dies before Complete updates the journal.

	stB, _ := store.Open(dir)
	coordB, err := NewCoordinator(CoordinatorOptions{Store: stB, Obs: obs.NewScope(), now: futureClock})
	if err != nil {
		t.Fatalf("coordinator B: %v", err)
	}
	stat, ok := coordB.Status(id)
	if !ok || stat.State != StateDone || stat.Done != 1 {
		t.Fatalf("restored status %+v, want done 1/1 (recovered from store)", stat)
	}
	if acquire(t, coordB, "w2").Remaining != 0 {
		t.Fatalf("recovered campaign still advertises work")
	}
}

// TestReleaseReturnsCellWithoutBurningAttempt pins the drain contract: a
// released lease requeues its cell immediately and restores the attempt
// count, so draining a worker fleet cannot walk a cell toward MaxAttempts.
func TestReleaseReturnsCellWithoutBurningAttempt(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	spec := testSpec()
	spec.Benchmarks = []string{"astar"}
	if _, _, _, err := c.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for round := 1; round <= 5; round++ {
		grant := acquire(t, c, "drainer")
		if grant.Lease == nil {
			t.Fatalf("round %d: no lease", round)
		}
		if grant.Lease.Attempt != 1 {
			t.Fatalf("round %d: attempt %d, want 1 (release must not burn attempts)", round, grant.Lease.Attempt)
		}
		if !c.Release(grant.Lease.ID, "drainer") {
			t.Fatalf("round %d: release refused", round)
		}
		if c.Release(grant.Lease.ID, "drainer") {
			t.Fatalf("round %d: double release accepted", round)
		}
	}
	if c.Release(9999, "nobody") {
		t.Fatalf("release of unknown lease accepted")
	}
}

// TestCompleteIdempotency: a retried completion carrying the same
// idempotency key returns the original outcome instead of reprocessing —
// the torn-response case — and the cell is counted exactly once.
func TestCompleteIdempotency(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	spec := testSpec()
	spec.Benchmarks = []string{"astar"}
	id, _, _, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	grant := acquire(t, c, "w")
	req := CompleteRequest{Worker: "w", Results: fakeResults(spec.Runs), IdempotencyKey: "lease-1"}
	if err := c.Complete(grant.Lease.ID, req); err != nil {
		t.Fatalf("complete: %v", err)
	}
	// The response was torn; the client retries the identical post.
	if err := c.Complete(grant.Lease.ID, req); err != nil {
		t.Fatalf("retried complete: %v", err)
	}
	if got := c.metrics().Counter("campaign.cells.completed").Value(); got != 1 {
		t.Fatalf("cells completed = %d, want 1", got)
	}
	if got := c.metrics().Counter("campaign.completions.deduped").Value(); got != 1 {
		t.Fatalf("completions deduped = %d, want 1", got)
	}
	stat, _ := c.Status(id)
	if stat.State != StateDone {
		t.Fatalf("campaign %+v, want done", stat)
	}
	// Without a key the same retry would have surfaced "unknown lease".
	if err := c.Complete(grant.Lease.ID, CompleteRequest{Worker: "w", Results: fakeResults(spec.Runs)}); err == nil {
		t.Fatalf("keyless retry of a resolved lease did not error")
	}
}

// TestSubmitOverloadSheds: past the open-cell bound, submissions shed with
// a typed overload error — HTTP 429 with Retry-After, not a queue that
// grows until the process dies.
func TestSubmitOverloadSheds(t *testing.T) {
	_, _, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope(), MaxPendingCells: 1})
	client.MaxAttempts = 1 // do not retry the 429 into the deadline
	_, err := client.Submit(context.Background(), testSpec())
	if err == nil {
		t.Fatalf("2-cell submit accepted over a 1-cell bound")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("error = %v, want HTTP 429", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("429 carried no Retry-After hint: %+v", se)
	}

	// The typed error is visible without HTTP too.
	st, _ := store.Open(t.TempDir())
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope(), MaxPendingCells: 1})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	_, _, _, err = c.Submit(testSpec())
	var over *OverloadError
	if !errors.As(err, &over) || over.Limit != 1 {
		t.Fatalf("error = %v, want *OverloadError with limit 1", err)
	}
}

// TestChaosProtocolFaults arms a hostile network — dropped requests, an
// injected 503, a torn completion response, a duplicated completion — and
// checks the farm converges to the same bytes anyway: retries absorb the
// faults, idempotency keys absorb the duplicates, and no cell is lost or
// double-counted.
func TestChaosProtocolFaults(t *testing.T) {
	spec := testSpec()
	baseline := localBaseline(t, spec)

	deactivate := faultinject.Activate(7,
		faultinject.Fault{Site: faultinject.SiteNetAcquire, Kind: faultinject.KindDrop, Nth: 1},
		faultinject.Fault{Site: faultinject.SiteNetComplete, Kind: faultinject.Kind5xx, Nth: 1},
		faultinject.Fault{Site: faultinject.SiteNetComplete, Kind: faultinject.KindTorn, Nth: 2},
		faultinject.Fault{Site: faultinject.SiteNetComplete, Kind: faultinject.KindDup, Nth: 3},
		faultinject.Fault{Site: faultinject.SiteCoordAcquire, Kind: faultinject.KindError, Nth: 3},
	)
	defer deactivate()

	c, _, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	client.RetryBase = time.Millisecond
	resp, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	runWorkers(t, client, 2)
	deactivate() // the assertion path below should run fault-free

	final, err := client.WaitDone(context.Background(), resp.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateDone || final.Done != resp.Cells {
		t.Fatalf("final status %+v, want all %d cells done", final, resp.Cells)
	}
	if got := c.metrics().Counter("campaign.cells.completed").Value(); got != uint64(resp.Cells) {
		t.Fatalf("cells completed = %d, want %d (faults must not double-count)", got, resp.Cells)
	}
	merged, err := client.Artifact(context.Background(), resp.ID)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if !bytes.Equal(merged, baseline) {
		t.Fatalf("artifact under protocol chaos differs from fault-free local run")
	}
}

// TestTornCampaignDocsSkippedNotFatal: damaged journals in the campaigns/
// state area — one whose submit line is torn, one whose record names a
// cell its spec does not derive, and one with records but no submit
// record, as builds that kept a snapshot document beside the journal
// wrote — must never prevent a coordinator from starting. Each is skipped
// with a counter; an intact neighbor restores normally.
func TestTornCampaignDocsSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	coordA, err := NewCoordinator(CoordinatorOptions{Store: stA, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator A: %v", err)
	}
	id, _, _, err := coordA.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	writeLog := func(name string, lines ...string) {
		t.Helper()
		body := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, "campaigns", name+".events.jsonl"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	submit := `{"msg":"campaign submitted","rec":{"seq":1,"state":"running","submit":{"spec":{"benchmarks":["astar"],"runs":3},"trace":"t"}}}`
	grant := `{"msg":"lease granted","rec":{"seq":2,"state":"running","cell":{"bench":"%s","state":"leased","attempts":1,"lease":7},` +
		`"lease":{"id":7,"bench":"%s","worker":"w","deadline_unix_nano":1,"attempt":1}}}`
	writeLog("c0100", submit[:len(submit)/2], fmt.Sprintf(grant, "astar", "astar"))                   // torn submit line
	writeLog("c0101", submit, fmt.Sprintf(grant, "ghost", "ghost"))                                   // a cell the spec does not derive
	writeLog("c0102", strings.Replace(fmt.Sprintf(grant, "astar", "astar"), `"seq":2`, `"seq":1`, 1)) // no submit record

	stB, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	coordB, err := NewCoordinator(CoordinatorOptions{Store: stB, Obs: obs.NewScope(), now: futureClock})
	if err != nil {
		t.Fatalf("coordinator refused to start over damaged journals: %v", err)
	}
	if got := coordB.metrics().Counter("campaign.docs.skipped").Value(); got != 3 {
		t.Fatalf("journals skipped = %d, want 3", got)
	}
	if got := coordB.metrics().Counter("campaign.restored").Value(); got != 1 {
		t.Fatalf("campaigns restored = %d, want 1", got)
	}
	if _, ok := coordB.Status(id); !ok {
		t.Fatalf("intact campaign %s lost among damaged neighbors", id)
	}
	coordB.mu.Lock()
	leases := len(coordB.leases)
	coordB.mu.Unlock()
	if leases != 0 {
		t.Fatalf("skipped journals left %d leases in the table", leases)
	}
}

// TestWorkerDrainReleasesLease: a worker whose drain flag rises while it
// holds a lease hands the lease back immediately — the coordinator sees a
// released (not TTL-expired) lease, the cell requeues at its original
// attempt count, and a successor finishes the campaign. Both shutdown
// stages are covered: the graceful drain (ErrStopped) and the hard cancel,
// whose release runs on an independent context because the worker's own is
// already dead.
func TestWorkerDrainReleasesLease(t *testing.T) {
	c, _, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	spec := testSpec()
	spec.Benchmarks = []string{"astar"}
	resp, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Stage one: SIGTERM (drain) arrives between acquiring the lease and
	// starting the collection — the engine refuses the cell with ErrStopped
	// and the worker must release, not abandon.
	w := &Worker{Client: client, Name: "drainer", Poll: 5 * time.Millisecond, Obs: obs.NewScope()}
	ctx, drain := experiment.WithDrain(context.Background())
	grant, err := client.Acquire(ctx, w.Name)
	if err != nil || grant.Lease == nil {
		t.Fatalf("acquire: %+v, %v", grant, err)
	}
	drain()
	w.runLease(ctx, grant.Lease)
	if got := c.metrics().Counter("campaign.leases.released").Value(); got != 1 {
		t.Fatalf("leases released = %d, want 1", got)
	}
	stat, _ := c.Status(resp.ID)
	if stat.State != StateRunning || stat.Pending != 1 {
		t.Fatalf("status after drain %+v, want the cell back in pending", stat)
	}

	// Stage two: hard cancel mid-lease. The release still goes out,
	// best-effort, on a short background deadline.
	hardCtx, cancel := context.WithCancel(context.Background())
	grant2, err := client.Acquire(hardCtx, w.Name)
	if err != nil || grant2.Lease == nil {
		t.Fatalf("second acquire: %+v, %v", grant2, err)
	}
	if grant2.Lease.Attempt != 1 {
		t.Fatalf("second lease attempt = %d, want 1 (release must not burn attempts)", grant2.Lease.Attempt)
	}
	cancel()
	w.runLease(hardCtx, grant2.Lease)
	if got := c.metrics().Counter("campaign.leases.released").Value(); got != 2 {
		t.Fatalf("leases released = %d, want 2 (hard cancel must still release)", got)
	}

	// A successor worker finishes the campaign at attempt 1.
	runWorkers(t, client, 1)
	final, err := client.WaitDone(context.Background(), resp.ID, 10*time.Millisecond)
	if err != nil || final.State != StateDone {
		t.Fatalf("campaign did not finish after drain: %+v, %v", final, err)
	}
	if got := c.metrics().Counter("campaign.requeues").Value(); got != 0 {
		t.Fatalf("requeues = %d, want 0 (releases are not failures)", got)
	}
}
