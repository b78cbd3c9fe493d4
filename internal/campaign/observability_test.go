package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestObservabilityEndToEnd is the acceptance test for farm observability:
// a campaign runs across two coordinator incarnations (epoch 1 crashes
// with a cell leased to a worker that never reports; epoch 2 takes over,
// expires the lease — the forced requeue — and real workers finish it),
// and afterwards
//
//   - the durable event journal reconstructs into a valid Chrome trace,
//   - every attempt of the requeued cell shares the campaign's one trace
//     ID across both coordinators,
//   - the merged artifact is byte-identical to a no-observability local
//     run, with provenance available only as strippable decoration,
//   - /metrics exposes the counters that moved, in Prometheus text format.
func TestObservabilityEndToEnd(t *testing.T) {
	spec := testSpec()
	baseline := localBaseline(t, spec)
	dir := t.TempDir()

	// Epoch 1: coord-a grants astar to a worker that will never report and
	// completes bzip2 normally, then "crashes".
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
	id, _, _, err := coordA.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	coordA.mu.Lock()
	traceA := coordA.byID[id].trace
	coordA.mu.Unlock()
	if traceA == "" {
		t.Fatalf("campaign has no trace id")
	}

	dead := coordA.Acquire("w-dead")
	if dead.Lease == nil {
		t.Fatalf("no lease for the doomed worker")
	}
	if dead.Lease.Trace != traceA || dead.Lease.Span != obs.SpanID(id, dead.Lease.Bench, 1) {
		t.Fatalf("lease carries trace %q span %q, want %q / %q",
			dead.Lease.Trace, dead.Lease.Span, traceA, obs.SpanID(id, dead.Lease.Bench, 1))
	}
	deadCell := dead.Lease.Bench

	second := coordA.Acquire("w-live")
	if second.Lease == nil {
		t.Fatalf("no second lease")
	}
	started := time.Now()
	results := computeLease(t, second.Lease)
	if err := coordA.Complete(second.Lease.ID, CompleteRequest{
		Worker: "w-live", Results: results,
		Trace: second.Lease.Trace, Span: second.Lease.Span,
		SpanRecord: &SpanRecord{
			Trace: second.Lease.Trace, Span: second.Lease.Span, Worker: "w-live",
			StartUnixNs: started.UnixNano(), EndUnixNs: time.Now().UnixNano(),
		},
	}); err != nil {
		t.Fatalf("complete on A: %v", err)
	}
	// kill -9: coord-a is abandoned with deadCell leased.

	// Epoch 2: coord-b takes over an hour later; every persisted lease is
	// expired from its clock, so the doomed lease requeues on first contact.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	handleB, _, err := stB.Coordination().TryAcquire("coord-b", 30*time.Minute, futureClock())
	if err != nil || handleB == nil {
		t.Fatalf("takeover: %v %v", handleB, err)
	}
	coordB, err := NewCoordinator(CoordinatorOptions{
		Store: stB, Obs: obs.NewScope(), Identity: "coord-b", Fence: handleB, now: futureClock,
	})
	if err != nil {
		t.Fatalf("coordinator B: %v", err)
	}
	coordB.mu.Lock()
	traceB := coordB.byID[id].trace
	coordB.mu.Unlock()
	if traceB != traceA {
		t.Fatalf("restored trace %q != submitted trace %q: failover broke the trace", traceB, traceA)
	}

	ts := httptest.NewServer(coordB.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	runWorkers(t, client, 2)
	final, err := client.WaitDone(context.Background(), id, 10*time.Millisecond)
	if err != nil || final.State != StateDone {
		t.Fatalf("campaign did not finish: %+v %v", final, err)
	}

	// Golden surface: the merged artifact is byte-identical to the
	// uninterrupted local run.
	merged, err := client.Artifact(context.Background(), id)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if !bytes.Equal(merged, baseline) {
		t.Fatalf("artifact with observability enabled differs from baseline")
	}

	// Provenance rides as a strippable non-golden decoration.
	decorated, err := client.ArtifactProvenance(context.Background(), id)
	if err != nil {
		t.Fatalf("artifact with provenance: %v", err)
	}
	if bytes.Equal(decorated, merged) {
		t.Fatalf("?provenance=1 returned the plain artifact")
	}
	art, err := bench.ReadBytes(decorated)
	if err != nil {
		t.Fatalf("decorated artifact does not parse: %v", err)
	}
	deadProv := art.Find(deadCell).Provenance
	if deadProv == nil {
		t.Fatalf("cell %s has no provenance", deadCell)
	}
	if deadProv.Trace != traceA || deadProv.Coordinator != "coord-b" || deadProv.Attempts < 2 {
		t.Fatalf("provenance %+v, want trace %s via coord-b with >=2 attempts", deadProv, traceA)
	}
	if deadProv.Epoch != handleB.Epoch() {
		t.Fatalf("provenance epoch %d, want %d", deadProv.Epoch, handleB.Epoch())
	}
	art.StripProvenance()
	stripped, err := art.Encode()
	if err != nil {
		t.Fatalf("re-encode stripped artifact: %v", err)
	}
	if !bytes.Equal(stripped, baseline) {
		t.Fatalf("stripping provenance does not recover the golden bytes")
	}

	// The durable journal spans both incarnations and reconstructs into a
	// valid trace whose lease grants all share the campaign's trace ID.
	journal, _, err := coordB.events(id, 0)
	if err != nil || len(journal) == 0 {
		t.Fatalf("event journal: %v (len %d)", err, len(journal))
	}
	grants := 0
	deadGrants := 0
	for _, raw := range bytes.Split(journal, []byte("\n")) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line struct {
			Msg   string `json:"msg"`
			Cell  string `json:"cell"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("journal line does not parse: %v\n%s", err, raw)
		}
		if line.Msg != "lease granted" {
			continue
		}
		grants++
		if line.Trace != traceA {
			t.Fatalf("lease granted with trace %q, want %q:\n%s", line.Trace, traceA, raw)
		}
		if line.Cell == deadCell {
			deadGrants++
		}
	}
	if grants < 3 || deadGrants < 2 {
		t.Fatalf("journal has %d grants (%d for %s), want >=3 total and >=2 for the requeued cell",
			grants, deadGrants, deadCell)
	}

	tl, err := BuildTimeline(journal, id)
	if err != nil {
		t.Fatalf("BuildTimeline: %v", err)
	}
	if tl.Trace != traceA || tl.Report.Failovers < 1 {
		t.Fatalf("timeline trace %q failovers %d, want %q / >=1", tl.Trace, tl.Report.Failovers, traceA)
	}
	trace1, err := tl.EncodeTrace()
	if err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	if err := obs.ValidateTrace(trace1); err != nil {
		t.Fatalf("reconstructed farm trace fails validation: %v", err)
	}
	tl2, err := BuildTimeline(journal, id)
	if err != nil {
		t.Fatalf("second BuildTimeline: %v", err)
	}
	trace2, err := tl2.EncodeTrace()
	if err != nil {
		t.Fatalf("second EncodeTrace: %v", err)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("timeline reconstruction is not deterministic")
	}

	// /metrics speaks Prometheus text and carries the farm counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	samples, err := obs.ParseProm(body)
	if err != nil {
		t.Fatalf("/metrics output does not parse: %v\n%s", err, body)
	}
	if samples["sz_campaign_cells_completed"] < 1 {
		t.Fatalf("sz_campaign_cells_completed = %v, want >=1", samples["sz_campaign_cells_completed"])
	}
	if samples["sz_campaign_leases_expired"] < 1 {
		t.Fatalf("sz_campaign_leases_expired = %v, want >=1 (the forced requeue)", samples["sz_campaign_leases_expired"])
	}
	if _, ok := samples["sz_campaign_queue_wait_seconds_count"]; !ok {
		t.Fatalf("queue-wait histogram missing from /metrics:\n%s", body)
	}
	if _, ok := samples[`sz_campaign_tenant_pending{tenant="default"}`]; !ok {
		t.Fatalf("per-tenant gauge missing from /metrics:\n%s", body)
	}

	// Follow-mode events terminate on a finished campaign and deliver the
	// ring's lines.
	var evBuf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Events(ctx, id, true, &evBuf); err != nil {
		t.Fatalf("follow events: %v", err)
	}
	if !strings.Contains(evBuf.String(), `"msg":"campaign complete"`) {
		t.Fatalf("followed events missing completion:\n%s", evBuf.String())
	}
}

// TestStandbyServesMetrics pins that a standby coordinator — which 503s
// the protocol — still answers GET /metrics, so both members of an HA pair
// are scrapable.
func TestStandbyServesMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	scope := obs.NewScope()
	scope.Metrics.Counter("ha.promotions").NonGolden()
	standby, err := NewHAServer(HAOptions{
		Coordinator: CoordinatorOptions{Store: st},
		Identity:    "standby-co",
		Obs:         scope,
	})
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	ts := httptest.NewServer(standby)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standby /metrics status %d, want 200", resp.StatusCode)
	}
	if _, err := obs.ParseProm(body); err != nil {
		t.Fatalf("standby /metrics does not parse: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "sz_ha_promotions") {
		t.Fatalf("standby /metrics missing ha counters:\n%s", body)
	}
}
