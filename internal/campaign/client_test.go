package campaign

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestParseRetryAfter pins both RFC 9110 Retry-After forms — delay-seconds
// and HTTP-date — and the cap that keeps a misbehaving server from parking
// a worker fleet for minutes. The cap is deliberately higher than the
// client's own backoff ceiling: a server-directed delay may stretch the
// schedule, but only up to retryAfterCap.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 2, 3, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{" 2 ", 2 * time.Second},
		{"0", 0},
		{"-3", 0},   // negative delay: no wait
		{"soon", 0}, // malformed: ignore the hint
		{"86400", retryAfterCap},
		{now.Add(10 * time.Second).Format(http.TimeFormat), 10 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // date in the past
		{now.Add(10 * time.Minute).Format(http.TimeFormat), retryAfterCap},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
	if retryAfterCap <= retryBackoffCap {
		t.Fatalf("retryAfterCap %s must exceed the client's own backoff ceiling %s", retryAfterCap, retryBackoffCap)
	}
}

// TestClientServerListParsing pins the comma-separated failover list:
// whitespace and trailing slashes are trimmed, empties dropped, and a
// single-server value behaves exactly as before.
func TestClientServerListParsing(t *testing.T) {
	c := NewClient(" http://a:1/ , http://b:2 ,")
	list := c.serverList()
	if len(list) != 2 || list[0] != "http://a:1" || list[1] != "http://b:2" {
		t.Fatalf("serverList = %v", list)
	}
	if got := c.base(); got != "http://a:1" {
		t.Fatalf("base = %q, want the first listed server", got)
	}
	single := NewClient("http://only:3")
	if got := single.base(); got != "http://only:3" {
		t.Fatalf("single-server base = %q", got)
	}
}

// TestClientReusesConnection: every exchange — including the replies the
// client does not decode (heartbeat, complete, release) and error replies
// — leaves the connection reusable, so one client talks to the coordinator
// over one TCP connection.
func TestClientReusesConnection(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(c.Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client := NewClient(ts.URL)
	client.HTTP = &http.Client{Transport: &http.Transport{}}
	ctx := context.Background()

	sp := testSpec()
	sp.Benchmarks = []string{"astar", "bzip2", "mcf", "milc"}
	if _, err := client.Submit(ctx, sp); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := range sp.Benchmarks {
		grant, err := client.Acquire(ctx, "w")
		if err != nil || grant.Lease == nil {
			t.Fatalf("cell %d: acquire %+v, %v", i, grant, err)
		}
		if ok, err := client.Heartbeat(ctx, grant.Lease.ID); !ok || err != nil {
			t.Fatalf("cell %d: heartbeat %v, %v", i, ok, err)
		}
		if ok, err := client.Release(ctx, grant.Lease.ID, "w"); !ok || err != nil {
			t.Fatalf("cell %d: release %v, %v", i, ok, err)
		}
		if ok, err := client.Heartbeat(ctx, grant.Lease.ID); ok || err != nil { // 410 Gone
			t.Fatalf("cell %d: heartbeat of a released lease %v, %v", i, ok, err)
		}
		if grant, err = client.Acquire(ctx, "w"); err != nil || grant.Lease == nil {
			t.Fatalf("cell %d: second acquire %+v, %v", i, grant, err)
		}
		if err := client.Complete(ctx, grant.Lease.ID, CompleteRequest{Worker: "w", Results: fakeResults(sp.Runs)}); err != nil {
			t.Fatalf("cell %d: complete: %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d exchanges over %d connections, want 1", 1+6*len(sp.Benchmarks), n)
	}
}

// TestClientArtifactFailsOver: an artifact fetch whose first listed server
// is down reprobes the list and reaches the live coordinator, like every
// other exchange — here its definitive 409 for a campaign it does not
// know, not the dead server's connection error.
func TestClientArtifactFailsOver(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, _, live := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	client := NewClient(dead.URL + "," + live.Server)
	client.RetryBase = time.Millisecond
	_, err := client.Artifact(context.Background(), "c0042")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("artifact with the first server down: %v, want the live coordinator's 409", err)
	}
}

// TestClientEventsFailsOver: with a standby listed first, an events read
// takes the standby's 503, reprobes the list and reads the journal from
// the active coordinator, as the JSON exchanges do
// (TestClientFailsOverToActiveCoordinator).
func TestClientEventsFailsOver(t *testing.T) {
	coord, st, active := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	id, _, _, err := coord.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	standby, err := NewHAServer(HAOptions{
		Coordinator: CoordinatorOptions{Store: st}, Identity: "standby", Poll: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	ts := httptest.NewServer(standby)
	defer ts.Close()
	client := NewClient(ts.URL + "," + active.Server)
	client.RetryBase = time.Millisecond
	var buf bytes.Buffer
	if err := client.Events(context.Background(), id, false, &buf); err != nil {
		t.Fatalf("events with the standby listed first: %v", err)
	}
	journal, _, err := coord.events(id, 0)
	if err != nil || len(journal) == 0 || !bytes.Equal(buf.Bytes(), journal) {
		t.Fatalf("events read through failover:\n%s\nwant the journal (%v):\n%s", buf.Bytes(), err, journal)
	}
}
