package campaign

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestCoordinatorFailoverFinishesCampaign is the acceptance test for fenced
// failover: two coordinator incarnations share one store through the
// coordination lease. The active (epoch 1) is killed mid-campaign with one
// cell done and one leased; a standby takes over the expired lease at epoch
// 2, replays the journal, and workers finish the campaign against it. The
// deposed coordinator's late writes are rejected by its stale fencing
// epoch, and the merged artifact is byte-identical to a fault-free local
// run.
func TestCoordinatorFailoverFinishesCampaign(t *testing.T) {
	spec := testSpec()
	baseline := localBaseline(t, spec)
	dir := t.TempDir()

	// Incarnation A holds the coordination lease at epoch 1.
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	handleA, _, err := stA.Coordination().TryAcquire("coord-a", 30*time.Minute, time.Now())
	if err != nil || handleA == nil {
		t.Fatalf("acquire lease A: %v %v", handleA, err)
	}
	coordA, err := NewCoordinator(CoordinatorOptions{
		Store: stA, Obs: obs.NewScope(), Identity: "coord-a", Fence: handleA,
	})
	if err != nil {
		t.Fatalf("coordinator A: %v", err)
	}
	id, cells, _, err := coordA.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
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
	// kill -9 here: coordA is abandoned with the second cell leased and the
	// coordination lease still on disk, unrenewed.

	// A standby an hour later finds the heartbeat expired, claims fencing
	// epoch 2, and promotes through the ordinary restart path.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	handleB, _, err := stB.Coordination().TryAcquire("coord-b", 30*time.Minute, futureClock())
	if err != nil || handleB == nil {
		t.Fatalf("standby could not take over the expired lease: %v %v", handleB, err)
	}
	if handleB.Epoch() != handleA.Epoch()+1 {
		t.Fatalf("takeover epoch %d, want %d", handleB.Epoch(), handleA.Epoch()+1)
	}
	coordB, err := NewCoordinator(CoordinatorOptions{
		Store: stB, Obs: obs.NewScope(), Identity: "coord-b", Fence: handleB, now: futureClock,
	})
	if err != nil {
		t.Fatalf("coordinator B: %v", err)
	}
	stat, ok := coordB.Status(id)
	if !ok || stat.State != StateRunning || stat.Done != 1 {
		t.Fatalf("restored status %+v ok=%v, want running with 1 done", stat, ok)
	}

	// The deposed coordinator is fenced off: its completion cannot reach the
	// store, and its submissions are refused outright.
	var fenced *store.FencedError
	err = coordA.Complete(second.Lease.ID, CompleteRequest{
		Worker: "doomed", Results: fakeResults(second.Lease.Runs),
	})
	if !errors.As(err, &fenced) {
		t.Fatalf("deposed Complete = %v, want *store.FencedError", err)
	}
	if _, _, _, err := coordA.Submit(spec); !errors.As(err, &fenced) {
		t.Fatalf("deposed Submit = %v, want *store.FencedError", err)
	}

	// Workers pointed at the promoted coordinator finish the campaign.
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
	// Exactly the one orphaned cell crossed the failover un-done; the
	// deposed coordinator's fenced completion must not have stored a block.
	if got := coordB.metrics().Counter("campaign.cells.completed").Value(); got != 1 {
		t.Fatalf("B completed %d cells, want 1", got)
	}
	if got := stB.Len(); got != cells {
		t.Fatalf("store holds %d blocks, want %d", got, cells)
	}

	merged, err := client.Artifact(context.Background(), id)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if !bytes.Equal(merged, baseline) {
		t.Fatalf("artifact after failover differs from uninterrupted local run")
	}
	// The client observed the promoted identity and epoch from the response
	// headers.
	holder, epoch := client.ObservedCoordinator()
	if holder != "coord-b" || epoch != 2 {
		t.Fatalf("observed coordinator %s epoch %d, want coord-b epoch 2", holder, epoch)
	}
}

// TestLeaseStealFencesDeposedCoordinator deposes a live coordinator at the
// worst possible moment — between a completion's lease resolution and its
// store write — using the lease-steal fault site, and pins every fenced
// surface: the store write is refused, the journal stays byte-for-byte
// intact, and new submissions are rejected.
func TestLeaseStealFencesDeposedCoordinator(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	coordn := st.Coordination()
	handle, _, err := coordn.TryAcquire("active", time.Hour, time.Now())
	if err != nil || handle == nil {
		t.Fatalf("acquire lease: %v %v", handle, err)
	}
	c, err := NewCoordinator(CoordinatorOptions{
		Store: st, Obs: obs.NewScope(), Identity: "active", Fence: handle,
	})
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
	if grant.Lease == nil {
		t.Fatalf("no lease")
	}
	journal := filepath.Join(dir, "campaigns", id+".events.jsonl")
	preSteal, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal before steal: %v", err)
	}

	// Arm the steal: the next fence check — the one guarding this
	// completion's store write — fires the hook, which claims epoch 2 as a
	// rival process would after the active's (simulated) silence.
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteLeaseSteal, Kind: faultinject.KindHook, Nth: 1,
		Hook: func() {
			h2, _, err := coordn.TryAcquire("usurper", time.Hour, time.Now().Add(2*time.Hour))
			if err != nil || h2 == nil {
				t.Errorf("usurper takeover failed: %v %v", h2, err)
			}
		},
	})
	defer deactivate()

	err = c.Complete(grant.Lease.ID, CompleteRequest{Worker: "w", Results: fakeResults(grant.Lease.Runs)})
	var fenced *store.FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("completion after steal = %v, want *store.FencedError", err)
	}
	if fenced.OurEpoch != 1 || fenced.Epoch != 2 || fenced.Holder != "usurper" {
		t.Fatalf("FencedError = %+v, want epoch 1 superseded by usurper's 2", fenced)
	}
	if got := st.Len(); got != 0 {
		t.Fatalf("deposed completion stored %d blocks, want 0", got)
	}
	if got := c.metrics().Counter("campaign.fenced.writes").Value(); got == 0 {
		t.Fatalf("fenced-write counter did not move")
	}

	// A transition the deposed coordinator commits is refused and the
	// pre-steal journal survives untouched — the usurper replayed it at
	// promotion.
	c.mu.Lock()
	camp := c.byID[id]
	c.eventLocked(camp, "cell requeued", obs.F("cell", camp.cells[0].Bench))
	c.commitLocked(camp, camp.cells[0], nil)
	c.mu.Unlock()
	if got := c.metrics().Counter("campaign.persist.fenced").Value(); got != 1 {
		t.Fatalf("fenced persists = %d, want 1", got)
	}
	postSteal, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal after steal: %v", err)
	}
	if !bytes.Equal(preSteal, postSteal) {
		t.Fatalf("deposed coordinator modified the journal")
	}

	if _, _, _, err := c.Submit(testSpec()); !errors.As(err, &fenced) {
		t.Fatalf("deposed Submit = %v, want *store.FencedError", err)
	}
}

// TestDeposedCoordinatorGrantsNoLease pins that a grant whose journal
// append is fenced is withheld. The successor never journaled that lease
// id and may issue it for another cell, which would then take the first
// cell's samples under its own key. Over HTTP the refusal is a 503 with
// Retry-After, so the worker fails over to the successor.
func TestDeposedCoordinatorGrantsNoLease(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	handle, _, err := st.Coordination().TryAcquire("coord-a", 30*time.Minute, time.Now())
	if err != nil || handle == nil {
		t.Fatalf("acquire lease A: %v %v", handle, err)
	}
	c, err := NewCoordinator(CoordinatorOptions{
		Store: st, Obs: obs.NewScope(), Identity: "coord-a", Fence: handle,
	})
	if err != nil {
		t.Fatalf("coordinator A: %v", err)
	}
	spec := testSpec()
	spec.Benchmarks = []string{"astar", "bzip2", "mcf"}
	id, _, _, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if first := acquire(t, c, "w"); first.Lease == nil || first.Lease.ID != 1 {
		t.Fatalf("first grant %+v, want lease 1", first.Lease)
	}
	journal := filepath.Join(dir, "campaigns", id+".events.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}

	// B takes epoch 2 once A's coordination lease has run out.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if handleB, _, err := stB.Coordination().TryAcquire("coord-b", 30*time.Minute, futureClock()); err != nil || handleB == nil || handleB.Epoch() != 2 {
		t.Fatalf("B did not take epoch 2: %v %v", handleB, err)
	}

	resp, err := c.Acquire("w")
	var fenced *store.FencedError
	if !errors.As(err, &fenced) || resp.Lease != nil {
		t.Fatalf("deposed Acquire = lease %+v, err %v; want no lease and a *store.FencedError", resp.Lease, err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	hr, err := http.Post(ts.URL+"/v1/leases", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatalf("POST /v1/leases: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || hr.Header.Get("Retry-After") != "1" {
		t.Fatalf("deposed POST /v1/leases = %d, Retry-After %q; want 503, 1", hr.StatusCode, hr.Header.Get("Retry-After"))
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("deposed grants changed the journal:\nbefore %s\nafter  %s", before, after)
	}
}

// TestClientFailsOverToActiveCoordinator points a client at a standby
// first: the standby's 503 + Retry-After is retryable, the retry loop
// reprobes /v1/coordinator across the server list, and the exchange lands
// on the active coordinator — all inside one call.
func TestClientFailsOverToActiveCoordinator(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	active, err := NewCoordinator(CoordinatorOptions{
		Store: st, Obs: obs.NewScope(), Identity: "active-co",
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	standby, err := NewHAServer(HAOptions{
		Coordinator: CoordinatorOptions{Store: st},
		Identity:    "standby-co",
		CoordTTL:    90 * time.Millisecond, // keeps the standby's Retry-After at its 1s floor
		Obs:         obs.NewScope(),
	})
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	// standby.Run never starts: it stays in the standby role, answering
	// probes and 503ing the protocol.
	tsStandby := httptest.NewServer(standby)
	defer tsStandby.Close()
	tsActive := httptest.NewServer(active.Handler())
	defer tsActive.Close()

	client := NewClient(tsStandby.URL + "," + tsActive.URL)
	client.RetryBase = time.Millisecond
	resp, err := client.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("submit through standby-first list: %v", err)
	}
	if resp.Cells != 2 {
		t.Fatalf("submit response %+v", resp)
	}
	holder, _ := client.ObservedCoordinator()
	if holder != "active-co" {
		t.Fatalf("observed coordinator %q, want active-co", holder)
	}
	info, err := client.Coordinator(context.Background())
	if err != nil || info.Role != RoleActive || info.Self != "active-co" {
		t.Fatalf("post-failover probe %+v err=%v, want active-co active", info, err)
	}
}

// TestHAServerElectionAndFailover runs the live election loop: two
// HAServers over one store directory, exactly one promotes; cancelling the
// active releases the lease and the standby promotes at the next epoch.
func TestHAServerElectionAndFailover(t *testing.T) {
	dir := t.TempDir()
	mk := func(id string) *HAServer {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("%s: open store: %v", id, err)
		}
		ha, err := NewHAServer(HAOptions{
			Coordinator: CoordinatorOptions{Store: st, Obs: obs.NewScope()},
			Identity:    id,
			CoordTTL:    200 * time.Millisecond,
			Obs:         obs.NewScope(),
		})
		if err != nil {
			t.Fatalf("%s: new HA server: %v", id, err)
		}
		return ha
	}
	waitRole := func(s *HAServer, id, role string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if s.Role() == role {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%s: role %q not reached (still %q)", id, role, s.Role())
	}

	haA := mk("node-a")
	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() { doneA <- haA.Run(ctxA) }()
	waitRole(haA, "node-a", RoleActive)

	haB := mk("node-b")
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	doneB := make(chan error, 1)
	go func() { doneB <- haB.Run(ctxB) }()
	// B must hold at standby while A's lease is live.
	time.Sleep(250 * time.Millisecond)
	if haB.Role() != RoleStandby {
		t.Fatalf("two active coordinators on one store")
	}

	// Graceful failover: cancelling A releases the lease; B promotes at its
	// next poll with the successor epoch.
	cancelA()
	if err := <-doneA; err != nil {
		t.Fatalf("A's election loop: %v", err)
	}
	if haA.Role() != RoleStandby {
		t.Fatalf("cancelled server still claims the active role")
	}
	waitRole(haB, "node-b", RoleActive)
	co := haB.Coordinator()
	if co == nil {
		t.Fatalf("promoted standby has no coordinator")
	}
	if info := co.Info(); info.Epoch != 2 || info.Self != "node-b" {
		t.Fatalf("promoted coordinator info %+v, want node-b at epoch 2", info)
	}

	cancelB()
	if err := <-doneB; err != nil {
		t.Fatalf("B's election loop: %v", err)
	}
}
