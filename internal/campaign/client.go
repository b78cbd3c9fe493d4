package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Client is the farm protocol's HTTP client, shared by workers, the szfarm
// CLI, and tests. Every exchange passes through a named fault-injection
// site (net.submit, net.acquire, …) and a bounded retry loop: transient
// failures — transport errors, 5xx, 429 — are retried with capped
// exponential backoff and jitter; other 4xx are returned immediately.
// Retried completions carry an idempotency key (set by the worker), so a
// completion whose response was lost is deduplicated server-side rather
// than burning a cell attempt.
//
// For a high-availability farm, Server may list several coordinators
// (comma-separated). The client talks to one at a time; when an exchange
// fails retryably it reprobes every listed server's /v1/coordinator
// endpoint and fails over to the one reporting itself active with the
// highest fencing epoch — the promoted standby — inside the same bounded
// retry loop. A standby answers protocol requests with 503 + Retry-After,
// which is retryable, so a client that guessed wrong converges on the
// active coordinator without special cases.
type Client struct {
	// Server is one or more coordinator base URLs, comma-separated, e.g.
	// "http://localhost:8713" or "http://a:8713,http://b:8713".
	Server string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per exchange (default 5; 1 disables retry).
	MaxAttempts int
	// RetryBase is the first backoff delay (default 50ms, doubling per
	// attempt, capped at 2s). Tests shrink it.
	RetryBase time.Duration

	// mu guards the failover state below.
	mu sync.Mutex
	// servers is Server split on commas (parsed lazily); active indexes
	// the one currently receiving requests.
	servers []string
	active  int
	// obsHolder/obsEpoch record the coordinator identity and fencing epoch
	// from the most recent response's X-Sz-* headers, so CLIs and chaos
	// logs can attribute events across a failover.
	obsHolder string
	obsEpoch  uint64
}

// NewClient returns a client for the coordinator(s) at the given base
// URL(s), comma-separated.
func NewClient(server string) *Client {
	return &Client{Server: server}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// serverList parses Server on first use. Single-server configurations pay
// nothing beyond the parse.
func (c *Client) serverList() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.servers == nil {
		for _, s := range strings.Split(c.Server, ",") {
			if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
				c.servers = append(c.servers, s)
			}
		}
		if c.servers == nil {
			c.servers = []string{""}
		}
	}
	return c.servers
}

// base returns the server currently receiving requests.
func (c *Client) base() string {
	list := c.serverList()
	c.mu.Lock()
	defer c.mu.Unlock()
	return list[c.active%len(list)]
}

// observe records the answering coordinator's identity headers.
func (c *Client) observe(resp *http.Response) {
	holder := resp.Header.Get(HeaderCoordinator)
	if holder == "" {
		return
	}
	epoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	c.mu.Lock()
	c.obsHolder, c.obsEpoch = holder, epoch
	c.mu.Unlock()
}

// ObservedCoordinator reports the identity and fencing epoch of the last
// coordinator that answered this client ("" / 0 before any exchange).
func (c *Client) ObservedCoordinator() (holder string, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obsHolder, c.obsEpoch
}

// reprobe asks every listed server who it is and switches to the best
// answer: active role first, then highest fencing epoch. With nobody
// answering "active" (mid-election) the current choice stands — the retry
// loop's backoff covers the promotion window. Single-server clients skip
// the probe entirely.
func (c *Client) reprobe(ctx context.Context) {
	list := c.serverList()
	if len(list) < 2 {
		return
	}
	best, bestEpoch := -1, uint64(0)
	for i, server := range list {
		info, err := c.probeOne(ctx, server)
		if err != nil || info.Role != RoleActive {
			continue
		}
		if best < 0 || info.Epoch > bestEpoch {
			best, bestEpoch = i, info.Epoch
		}
	}
	if best >= 0 {
		c.mu.Lock()
		c.active = best
		c.mu.Unlock()
	}
}

// probeOne fetches one server's /v1/coordinator document (single attempt,
// no retry — the caller is already inside a retry loop).
func (c *Client) probeOne(ctx context.Context, server string) (CoordinatorInfo, error) {
	var info CoordinatorInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, server+"/v1/coordinator", nil)
	if err != nil {
		return info, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return info, &StatusError{Code: resp.StatusCode, Message: resp.Status}
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info)
	return info, err
}

// Coordinator reports the currently-selected server's role, identity, and
// fencing epoch.
func (c *Client) Coordinator(ctx context.Context) (CoordinatorInfo, error) {
	return c.probeOne(ctx, c.base())
}

// Scaling fetches the coordinator's autoscaling signals.
func (c *Client) Scaling(ctx context.Context) (ScalingReport, error) {
	var out ScalingReport
	err := c.doJSON(ctx, faultinject.SiteNetStatus, http.MethodGet, "/v1/scaling", nil, &out)
	return out, err
}

const retryBackoffCap = 2 * time.Second

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 5
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 50 * time.Millisecond
}

// retryableError reports whether an exchange failure is worth retrying:
// transport-level failures (the request may never have arrived, or the
// response was lost) and explicitly transient statuses. Every other status
// is a definitive answer from the coordinator — 410 Gone on a heartbeat,
// for instance, is a signal, not a failure.
func retryableError(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code/100 == 5
	}
	return true
}

// doJSON performs a JSON exchange with retries. The site names this
// exchange for fault injection.
func (c *Client) doJSON(ctx context.Context, site, method, path string, in, out any) error {
	return c.retry(ctx, func() error { return c.doJSONOnce(ctx, site, method, path, in, out) })
}

// retry runs an exchange until it succeeds, fails definitively, or runs
// out of attempts. A retryable failure against a multi-server list
// triggers a coordinator reprobe before the next attempt, so a failover
// (dead active, promoted standby) resolves inside the ordinary retry
// budget.
func (c *Client) retry(ctx context.Context, once func() error) error {
	attempts := c.maxAttempts()
	for attempt := 0; ; attempt++ {
		err := once()
		if err == nil || attempt >= attempts-1 || !retryableError(err) || ctx.Err() != nil {
			return err
		}
		delay := c.retryBase() << attempt
		if delay > retryBackoffCap {
			delay = retryBackoffCap
		}
		// A server-suggested Retry-After overrides the schedule; the jitter
		// spreads synchronized retries from a worker fleet.
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			delay = se.RetryAfter
		}
		delay += time.Duration(rand.Int63n(int64(delay)/2 + 1))
		if serr := sleepCtx(ctx, delay); serr != nil {
			return err
		}
		c.reprobe(ctx)
	}
}

// doJSONOnce runs one exchange through the site's injected network fault,
// if any: a drop fails before sending (request lost), an injected status
// fails without sending (upstream 5xx), a duplicate sends the request twice
// and discards the first response (retransmission reaching the server
// twice), and a torn response lets the server process the request but loses
// the reply — the case idempotency keys exist for.
func (c *Client) doJSONOnce(ctx context.Context, site, method, path string, in, out any) error {
	nf := faultinject.Protocol(ctx, site)
	switch {
	case nf.Drop:
		return fmt.Errorf("campaign: %s: injected request drop", site)
	case nf.Status != 0:
		return &StatusError{Code: nf.Status, Message: "injected upstream error"}
	case nf.Duplicate:
		_ = c.exchange(ctx, method, path, in, nil, false)
	case nf.Torn:
		return c.exchange(ctx, method, path, in, out, true)
	}
	return c.exchange(ctx, method, path, in, out, false)
}

// exchange is one raw JSON request/response. A non-2xx status is returned
// as a *StatusError carrying the server's error message. With torn set,
// the response is discarded after the server has handled the request and a
// transport-style error is returned instead.
func (c *Client) exchange(ctx context.Context, method, path string, in, out any, torn bool) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("campaign: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base()+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace context (a worker's leased span, usually)
	// so coordinator-side logs join the distributed trace.
	obs.TraceContextFrom(ctx).Inject(req.Header)
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	// Read what the caller does not decode (every Complete, Heartbeat and
	// Release reply, every error reply) before closing: Go's transport
	// keeps the connection for the next exchange only after the body
	// reached EOF. The bound keeps a misbehaving server from stalling us.
	defer func() {
		io.CopyN(io.Discard, resp.Body, 64<<10)
		resp.Body.Close()
	}()
	c.observe(resp)
	if torn {
		return fmt.Errorf("campaign: %s %s: injected torn response", method, path)
	}
	if resp.StatusCode/100 != 2 {
		return statusError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError reads a non-2xx reply into a *StatusError carrying the
// server's error message and Retry-After hint.
func statusError(resp *http.Response) *StatusError {
	var e struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())}
}

// getRaw fetches path's body as served, with its response headers, under
// the retry and failover policy of every other exchange.
func (c *Client) getRaw(ctx context.Context, path string) (buf []byte, header http.Header, err error) {
	err = c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		c.observe(resp)
		if resp.StatusCode/100 != 2 {
			return statusError(resp)
		}
		header = resp.Header
		buf, err = io.ReadAll(resp.Body)
		return err
	})
	return buf, header, err
}

// retryAfterCap bounds how long a server-directed Retry-After may stall a
// client: the ceiling for delays the server asked for, distinct from (and
// higher than) retryBackoffCap, which governs the client's own schedule. A
// misbehaving or miscalibrated server cannot park a worker fleet for
// minutes.
const retryAfterCap = 30 * time.Second

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delay-seconds or an HTTP-date — clamped to [0, retryAfterCap]. Malformed
// values and dates in the past yield 0 (no server-directed delay).
func parseRetryAfter(s string, now time.Time) time.Duration {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(s); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, perr := http.ParseTime(s); perr == nil {
		d = t.Sub(now)
	}
	if d < 0 {
		d = 0
	}
	if d > retryAfterCap {
		d = retryAfterCap
	}
	return d
}

// StatusError is a non-2xx farm response.
type StatusError struct {
	Code    int
	Message string
	// RetryAfter carries the server's Retry-After hint on 429 responses.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("campaign: server returned %d: %s", e.Code, e.Message)
}

// Submit posts a campaign spec. A retried submission whose first attempt
// actually landed creates a second campaign over the same cells; that is
// benign — the store dedupes the work — but callers wanting exactly-one
// should check StatusAll after an ambiguous failure.
func (c *Client) Submit(ctx context.Context, spec Spec) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.doJSON(ctx, faultinject.SiteNetSubmit, http.MethodPost, "/v1/campaigns", spec, &out)
	return out, err
}

// Status fetches one campaign's status.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var out Status
	err := c.doJSON(ctx, faultinject.SiteNetStatus, http.MethodGet, "/v1/campaigns/"+id, nil, &out)
	return out, err
}

// StatusAll fetches every campaign's summary.
func (c *Client) StatusAll(ctx context.Context) ([]Status, error) {
	var out []Status
	err := c.doJSON(ctx, faultinject.SiteNetStatus, http.MethodGet, "/v1/campaigns", nil, &out)
	return out, err
}

// Artifact fetches a completed campaign's merged artifact bytes.
func (c *Client) Artifact(ctx context.Context, id string) ([]byte, error) {
	buf, _, err := c.getRaw(ctx, "/v1/campaigns/"+id+"/artifact")
	return buf, err
}

// ArtifactProvenance fetches the artifact with per-cell provenance blocks
// attached (worker, coordinator, attempts, timings). The provenance is
// non-golden decoration: stripping it recovers the plain artifact bytes.
func (c *Client) ArtifactProvenance(ctx context.Context, id string) ([]byte, error) {
	buf, _, err := c.getRaw(ctx, "/v1/campaigns/"+id+"/artifact?provenance=1")
	return buf, err
}

// Events writes a campaign's JSONL event journal to w. Without follow it
// is one page: every line journaled so far. With follow it polls from the
// byte cursor the last page ended at until the campaign is terminal. Every
// coordinator on the store serves the same journal, and each page goes
// through the retry and failover policy of every other exchange, so the
// cursor carries across a coordinator restart or failover with no line
// lost or repeated.
func (c *Client) Events(ctx context.Context, id string, follow bool, w io.Writer) error {
	var next int64
	for {
		buf, header, err := c.getRaw(ctx, "/v1/campaigns/"+id+"/events?since="+strconv.FormatInt(next, 10))
		if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if !follow || header.Get(HeaderEventsTerminal) == "1" {
			return nil
		}
		next += int64(len(buf)) // the page's X-Sz-Events-Next
		if err := sleepCtx(ctx, 500*time.Millisecond); err != nil {
			return err
		}
	}
}

// Acquire requests a lease.
func (c *Client) Acquire(ctx context.Context, worker string) (AcquireResponse, error) {
	var out AcquireResponse
	err := c.doJSON(ctx, faultinject.SiteNetAcquire, http.MethodPost, "/v1/leases",
		map[string]string{"worker": worker}, &out)
	return out, err
}

// Heartbeat extends a lease; ok=false means the lease is gone and the
// worker should abandon the cell.
func (c *Client) Heartbeat(ctx context.Context, leaseID uint64) (ok bool, err error) {
	err = c.doJSON(ctx, faultinject.SiteNetHeartbeat, http.MethodPost, fmt.Sprintf("/v1/leases/%d/heartbeat", leaseID), map[string]any{}, nil)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusGone {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// Complete posts a finished cell. Callers should set req.IdempotencyKey so
// retried posts are deduplicated server-side; the worker uses the lease id,
// which is single-use.
func (c *Client) Complete(ctx context.Context, leaseID uint64, req CompleteRequest) error {
	return c.doJSON(ctx, faultinject.SiteNetComplete, http.MethodPost, fmt.Sprintf("/v1/leases/%d/complete", leaseID), req, nil)
}

// Release hands a lease back to the coordinator without burning an attempt
// — the drain path. ok=false means the lease was already gone, which a
// draining worker can ignore.
func (c *Client) Release(ctx context.Context, leaseID uint64, worker string) (ok bool, err error) {
	err = c.doJSON(ctx, faultinject.SiteNetRelease, http.MethodPost,
		fmt.Sprintf("/v1/leases/%d/release", leaseID), map[string]string{"worker": worker}, nil)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusGone {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// WaitDone polls a campaign until it reaches a terminal state; it returns
// the final status (whose State distinguishes done from failed).
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return Status{}, err
		}
		if st.State != StateRunning {
			return st, nil
		}
		if err := sleepCtx(ctx, poll); err != nil {
			return st, err
		}
	}
}
