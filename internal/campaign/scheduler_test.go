package campaign

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestWeightedFairSchedulingSmallTenantCompletes pins the fairness
// acceptance criterion: a 1-cell smoke campaign submitted behind a
// 100-cell bulk backlog (100x larger, same priority) is granted within the
// first scheduling round and completes while the bulk work is still almost
// entirely in flight.
func TestWeightedFairSchedulingSmallTenantCompletes(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// Bulk tenant: 50 campaigns x 2 cells = 100 open cells, distinct seeds
	// so no cell dedupes against another.
	for i := 0; i < 50; i++ {
		spec := testSpec()
		spec.Tenant = "bulk"
		spec.Seed = uint64(3000 + i)
		if _, _, _, err := c.Submit(spec); err != nil {
			t.Fatalf("bulk submit %d: %v", i, err)
		}
	}
	smoke := testSpec()
	smoke.Benchmarks = []string{"astar"}
	smoke.Tenant = "smoke"
	smoke.Seed = 99
	smokeID, _, _, err := c.Submit(smoke)
	if err != nil {
		t.Fatalf("smoke submit: %v", err)
	}

	grants := 0
	for {
		resp := acquire(t, c, "w")
		if resp.Lease == nil {
			t.Fatalf("scheduler granted nothing with %d cells open", resp.Remaining)
		}
		grants++
		isSmoke := resp.Lease.Campaign == smokeID
		if err := c.Complete(resp.Lease.ID, CompleteRequest{
			Worker: "w", Results: fakeResults(resp.Lease.Runs),
		}); err != nil {
			t.Fatalf("complete: %v", err)
		}
		if isSmoke {
			break
		}
		if grants > 10 {
			t.Fatalf("smoke cell not granted within 10 grants behind a 100-cell backlog")
		}
	}
	// Equal weights alternate tenants, so the single smoke cell goes out in
	// the first round of grants.
	if grants > 2 {
		t.Fatalf("smoke cell granted at position %d, want <= 2", grants)
	}
	stat, ok := c.Status(smokeID)
	if !ok || stat.State != StateDone {
		t.Fatalf("smoke campaign %+v, want done", stat)
	}
	if rep := c.Scaling(); rep.Backlog < 95 {
		t.Fatalf("bulk backlog %d after smoke completed, want >= 95 still open", rep.Backlog)
	}
}

// TestTenantWeightsProportionalGrants pins the smooth-WRR grant sequence: a
// weight-3 tenant receives three of every four grants, interleaved — not
// three in a burst — and the sequence is deterministic.
func TestTenantWeightsProportionalGrants(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{
		Store: st, Obs: obs.NewScope(),
		TenantWeights: map[string]int{"heavy": 3},
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	byCamp := map[string]string{} // campaign id -> tenant
	for i := 0; i < 6; i++ {
		spec := testSpec()
		spec.Benchmarks = []string{"astar"}
		spec.Seed = uint64(500 + i)
		spec.Tenant = "light"
		if i%2 == 0 {
			spec.Tenant = "heavy"
		}
		id, _, _, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		byCamp[id] = spec.Tenant
	}

	var got []string
	for i := 0; i < 4; i++ {
		resp := acquire(t, c, "w")
		if resp.Lease == nil {
			t.Fatalf("grant %d: nothing granted", i)
		}
		got = append(got, byCamp[resp.Lease.Campaign])
	}
	want := []string{"heavy", "heavy", "light", "heavy"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v (smooth 3:1 interleaving)", got, want)
		}
	}
}

// TestPerTenantQuotas: one tenant's overload sheds only that tenant's
// submissions, and the per-tenant inflight cap idles the tenant's surplus
// demand without blocking its neighbor.
func TestPerTenantQuotas(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{
		Store: st, Obs: obs.NewScope(),
		MaxPendingPerTenant: 2, MaxInflightPerTenant: 1,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	big := testSpec() // 2 cells: fills big's quota exactly
	big.Tenant = "big"
	bigID, _, _, err := c.Submit(big)
	if err != nil {
		t.Fatalf("big submit: %v", err)
	}
	over := testSpec()
	over.Benchmarks = []string{"astar"}
	over.Tenant = "big"
	over.Seed = 7
	_, _, _, err = c.Submit(over)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("over-quota submit = %v, want *OverloadError", err)
	}
	if oe.Tenant != "big" || oe.Limit != 2 || oe.RetryAfter <= 0 {
		t.Fatalf("per-tenant shed %+v, want tenant big at limit 2 with a Retry-After", oe)
	}
	if got := c.metrics().Counter("campaign.overload.shed_tenant").Value(); got != 1 {
		t.Fatalf("tenant sheds = %d, want 1", got)
	}

	// The neighbor tenant submits freely past big's quota.
	small := testSpec()
	small.Benchmarks = []string{"astar"}
	small.Tenant = "small"
	small.Seed = 8
	smallID, _, _, err := c.Submit(small)
	if err != nil {
		t.Fatalf("small tenant shed by big's quota: %v", err)
	}
	byCamp := map[string]string{bigID: "big", smallID: "small"}

	// Inflight cap 1: the first two grants land one per tenant; the third
	// finds big capped and small drained, and grants nothing even though
	// big still has a pending cell.
	g1 := acquire(t, c, "w1")
	g2 := acquire(t, c, "w2")
	if g1.Lease == nil || g2.Lease == nil {
		t.Fatalf("grants under cap: %+v %+v", g1, g2)
	}
	if byCamp[g1.Lease.Campaign] == byCamp[g2.Lease.Campaign] {
		t.Fatalf("both grants went to tenant %q under inflight cap 1", byCamp[g1.Lease.Campaign])
	}
	g3 := acquire(t, c, "w3")
	if g3.Lease != nil {
		t.Fatalf("inflight cap breached: %+v", g3.Lease)
	}
	if g3.Remaining != 3 {
		t.Fatalf("remaining = %d, want 3 (1 pending + 2 leased)", g3.Remaining)
	}

	// Completing big's inflight cell frees its next grant.
	bigGrant := g1
	if byCamp[g2.Lease.Campaign] == "big" {
		bigGrant = g2
	}
	if err := c.Complete(bigGrant.Lease.ID, CompleteRequest{
		Worker: "w", Results: fakeResults(bigGrant.Lease.Runs),
	}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	g4 := acquire(t, c, "w4")
	if g4.Lease == nil || byCamp[g4.Lease.Campaign] != "big" {
		t.Fatalf("grant after completion %+v, want big's second cell", g4.Lease)
	}
}

// TestScalingReportSignals drives the farm on a manual clock and checks
// each autoscaling signal: the backlog/inflight split, the live-worker
// window, lease utilization, completion throughput, and the drain estimate.
func TestScalingReportSignals(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	now := base
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{
		Store: st, Obs: obs.NewScope(), LeaseTTL: time.Minute,
		now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if _, _, _, err := c.Submit(testSpec()); err != nil {
		t.Fatalf("submit: %v", err)
	}

	g1 := acquire(t, c, "w1")
	if g1.Lease == nil {
		t.Fatalf("no lease")
	}
	rep := c.Scaling()
	if rep.Backlog != 1 || rep.Inflight != 1 || rep.Workers != 1 {
		t.Fatalf("report %+v, want backlog 1 / inflight 1 / workers 1", rep)
	}
	if rep.LeaseUtilization != 1.0 {
		t.Fatalf("utilization %v with every worker busy, want 1", rep.LeaseUtilization)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Tenant != DefaultTenant ||
		rep.Tenants[0].Pending != 1 || rep.Tenants[0].Inflight != 1 || rep.Tenants[0].Campaigns != 1 {
		t.Fatalf("tenant breakdown %+v", rep.Tenants)
	}
	if rep.CompletionsPerSecond != 0 || rep.EstimatedDrainSeconds != 0 {
		t.Fatalf("throughput claimed with fewer than two completions: %+v", rep)
	}

	// Two completions two seconds apart, observed two seconds later: 2
	// completions over a 4s span is 0.5 cells/s.
	if err := c.Complete(g1.Lease.ID, CompleteRequest{Worker: "w1", Results: fakeResults(g1.Lease.Runs)}); err != nil {
		t.Fatalf("complete 1: %v", err)
	}
	now = base.Add(2 * time.Second)
	g2 := acquire(t, c, "w2")
	if g2.Lease == nil {
		t.Fatalf("no second lease")
	}
	if err := c.Complete(g2.Lease.ID, CompleteRequest{Worker: "w2", Results: fakeResults(g2.Lease.Runs)}); err != nil {
		t.Fatalf("complete 2: %v", err)
	}
	now = base.Add(4 * time.Second)
	next := testSpec()
	next.Seed = 4040
	if _, _, _, err := c.Submit(next); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	rep = c.Scaling()
	if rep.Workers != 2 {
		t.Fatalf("workers = %d, want 2", rep.Workers)
	}
	if rep.Backlog != 2 || rep.Inflight != 0 || rep.LeaseUtilization != 0 {
		t.Fatalf("report %+v, want 2 pending, nothing leased", rep)
	}
	if rep.CompletionsPerSecond != 0.5 {
		t.Fatalf("throughput %v, want 0.5 (2 completions over 4s)", rep.CompletionsPerSecond)
	}
	if rep.EstimatedDrainSeconds != 4 {
		t.Fatalf("drain estimate %v, want 4 (2 open cells at 0.5/s)", rep.EstimatedDrainSeconds)
	}

	// Workers silent for two lease TTLs retire from the live count.
	now = base.Add(10 * time.Minute)
	rep = c.Scaling()
	if rep.Workers != 0 || rep.LeaseUtilization != 0 {
		t.Fatalf("report %+v, want all workers retired after 2 TTLs of silence", rep)
	}
}
