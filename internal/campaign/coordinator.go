package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/store"
)

// Cell states.
const (
	cellPending = "pending"
	cellLeased  = "leased"
	cellDone    = "done"
	cellFailed  = "failed"
)

// Campaign states reported by Status.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Store is the content-addressed result store (required). Every
	// completed cell lands here; every submitted cell is probed here first.
	Store *store.Store
	// LeaseTTL is how long a lease survives without a heartbeat before its
	// cell is requeued (default 30s).
	LeaseTTL time.Duration
	// MaxAttempts caps how many times a cell is leased before the campaign
	// fails (default 3 — one run plus two retries, mirroring the local
	// engine's per-cell retry posture).
	MaxAttempts int
	// MaxPendingCells bounds the open (pending + leased) cells across all
	// running campaigns. A submission that would push past the bound is
	// shed with an *OverloadError (HTTP 429 + Retry-After) instead of
	// growing the queue without limit. Default 10000; negative disables
	// the bound.
	MaxPendingCells int
	// Identity names this coordinator process in /v1/coordinator reports
	// and the X-SZ-Coordinator response header (default "local"). In an HA
	// pair each process gets a distinct identity so chaos-test logs can
	// attribute events across a failover.
	Identity string
	// Fence, when non-nil, is the coordination lease this coordinator
	// holds on the store (store.Coordination). Every journal write and
	// every completion's store write re-verifies the fencing epoch first;
	// a deposed coordinator — one whose epoch has been superseded by a
	// promoted standby — has the write rejected with *store.FencedError
	// instead of corrupting the successor's state. Nil runs unfenced
	// (single-coordinator deployments and most tests).
	Fence *store.LeaseHandle
	// TenantWeights sets each tenant's share of the weighted round-robin
	// lease scheduler; tenants absent from the map weigh 1. Weights below
	// 1 are treated as 1.
	TenantWeights map[string]int
	// MaxInflightPerTenant caps how many cells one tenant may have leased
	// at once (0 or negative = unlimited). The cap idles a tenant's
	// surplus demand rather than shedding it.
	MaxInflightPerTenant int
	// MaxPendingPerTenant bounds one tenant's open (pending + leased)
	// cells; a submission breaching it is shed with a per-tenant
	// *OverloadError (HTTP 429 + Retry-After) while other tenants keep
	// submitting. 0 or negative = unlimited.
	MaxPendingPerTenant int
	// Obs receives the farm counters and the coordinator log. Counter
	// discipline: store hits/misses and cells completed are golden
	// (deterministic given store contents and the submission sequence);
	// leases granted, heartbeats missed, and requeues depend on worker
	// scheduling and wall-clock timing, so they are registered non-golden.
	Obs *obs.Scope
	// now is the clock, overridable in tests.
	now func() time.Time
}

func (o *CoordinatorOptions) defaults() error {
	if o.Store == nil {
		return fmt.Errorf("campaign: coordinator needs a result store")
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.MaxPendingCells == 0 {
		o.MaxPendingCells = 10000
	}
	if o.Identity == "" {
		o.Identity = "local"
	}
	if o.now == nil {
		o.now = time.Now
	}
	return nil
}

// cellState is one cell's scheduling state.
type cellState struct {
	CellSpec
	state    string
	attempts int    // leases granted so far
	fromHit  bool   // served from the store at submit time
	lease    uint64 // current lease id when leased
	err      string // last failure, for status reporting
	// firstGrant is when the cell's first lease was granted (zero until
	// then); with the campaign's submit time it yields the queue-wait
	// feeding campaign.queue.wait_seconds and the straggler report.
	firstGrant time.Time
	// prov is the measurement pedigree of the completing attempt,
	// attached to the artifact on request (?provenance=1). Non-golden.
	prov *bench.Provenance
}

// campaignState is one submitted campaign.
type campaignState struct {
	id     string
	spec   Spec
	tenant string
	cells  []*cellState
	state  string
	err    string
	// trace is the campaign's distributed trace ID, minted at submission
	// and journaled, so every cell attempt — including ones re-leased by
	// a promoted successor after failover — shares one trace.
	trace string
	// submitted anchors queue-wait measurement (journaled).
	submitted time.Time

	// artifact caches the merged artifact bytes once assembled.
	artifact []byte

	// The journal (persist.go): batch queues the event lines of the
	// transition in progress until flushLocked renders them and appends
	// them in one write; seq numbers the campaign's last journal record;
	// unwritten holds the rendered lines of a failed append, which the
	// next flush writes first; repair makes that flush cut a torn fragment
	// off the log before it appends (set after a failed append and at
	// restore).
	batch     []pendingEvent
	seq       uint64
	unwritten []byte
	repair    bool
}

// pendingEvent is one queued journal line: a coordinator event with the
// record it carries, if any, or a worker-forwarded line (raw, already one
// compact line).
type pendingEvent struct {
	msg    string
	fields []obs.Field
	rec    *journalRecord
	raw    []byte
}

type lease struct {
	id       uint64
	campaign *campaignState
	cell     *cellState
	worker   string
	deadline time.Time
	// journaled is the deadline the journal last recorded for the lease:
	// the one a restarted coordinator would restore.
	journaled time.Time
	expired   bool
	// attempt is the cell attempt this lease represents, frozen at grant
	// time: a late completion against an expired lease must name its own
	// attempt's span, not whatever attempt the cell is on by then.
	attempt int
}

// Coordinator owns campaign scheduling state and serves the farm protocol.
// All HTTP handlers are safe for concurrent use; the state machine is a
// single mutex — farm throughput is bounded by cell compute time, not
// coordination.
type Coordinator struct {
	opts CoordinatorOptions
	area *store.StateArea // campaign journals (campaigns/ beside blocks/)

	mu        sync.Mutex
	campaigns []*campaignState
	byID      map[string]*campaignState
	leases    map[uint64]*lease
	nextCamp  uint64
	nextLease uint64

	// idem deduplicates retried completions by idempotency key: a network
	// layer (or an injected fault) that replays a completion gets the
	// original outcome back instead of burning a cell attempt. Bounded to
	// the most recent idemCap keys; keys older than that have long since
	// resolved through the lease table anyway.
	idem      map[string]string // key -> outcome ("" = success)
	idemOrder []string

	// Scheduler and autoscaling state (scheduler.go): smooth-WRR credit
	// per tenant, last-seen time per worker, and a bounded ring of recent
	// completion times for the drain-rate estimate.
	wrrCredit  map[string]int
	workerSeen map[string]time.Time
	recentDone []time.Time
}

// idemCap bounds the idempotency-key window.
const idemCap = 4096

// NewCoordinator builds a coordinator over the given store and restores
// any campaigns journaled by a previous coordinator process on the same
// store directory: open campaigns resume scheduling, their stale leases
// re-expire lazily, and completed-but-unjournaled cells are recovered from
// the store itself.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:       opts,
		byID:       map[string]*campaignState{},
		leases:     map[uint64]*lease{},
		idem:       map[string]string{},
		wrrCredit:  map[string]int{},
		workerSeen: map[string]time.Time{},
	}
	if opts.Obs != nil {
		// Register the timing-dependent farm histograms/counters as
		// non-golden up front so a snapshot taken before any activity
		// already classifies them correctly.
		opts.Obs.Metrics.Counter("campaign.leases.granted").NonGolden()
		opts.Obs.Metrics.Counter("campaign.heartbeats.missed").NonGolden()
		opts.Obs.Metrics.Counter("campaign.requeues").NonGolden()
		opts.Obs.Metrics.Counter("campaign.leases.expired").NonGolden()
		opts.Obs.Metrics.Counter("campaign.leases.churn").NonGolden()
		opts.Obs.Metrics.Histogram("campaign.queue.wait_seconds").NonGolden()
	}
	area, err := opts.Store.StateArea("campaigns")
	if err != nil {
		return nil, err
	}
	c.area = area
	if err := c.loadCampaigns(); err != nil {
		return nil, fmt.Errorf("campaign: restoring persisted campaigns: %w", err)
	}
	return c, nil
}

func (c *Coordinator) metrics() *obs.Registry {
	if c.opts.Obs != nil {
		return c.opts.Obs.Metrics
	}
	return nil
}

func (c *Coordinator) logger() *obs.Logger {
	if c.opts.Obs != nil {
		return c.opts.Obs.Log
	}
	return nil
}

// eventLocked queues a JSONL line in the obs wire format for the
// transition in progress on camp and mirrors it to the coordinator log.
// The transition's commit (commitLocked, or flushLocked for submit and
// a restore's own line) renders the queued lines with a wall-clock timestamp
// (t_wall_ns_nongolden) so the timeline can order them, and appends them
// to the durable journal: what restore replays, what /events serves, and
// what `szfarm timeline` reads, across restarts and failovers. Must be
// called with c.mu held.
func (c *Coordinator) eventLocked(camp *campaignState, msg string, fields ...obs.Field) {
	camp.batch = append(camp.batch, pendingEvent{msg: msg, fields: fields})
	c.logger().Info(msg, append([]obs.Field{obs.F("campaign", camp.id)}, fields...)...)
}

// OverloadError sheds a submission the coordinator cannot queue without
// breaching its pending-cell bound — globally, or for one tenant when the
// per-tenant quota is the one breached. The HTTP layer maps it to 429 with
// a Retry-After header; the client backs off and retries. A per-tenant shed
// carries the tenant label so the caller can see other tenants are
// unaffected.
type OverloadError struct {
	Open       int           // open (pending + leased) cells right now
	Limit      int           // the configured bound
	RetryAfter time.Duration // suggested client backoff
	Tenant     string        // non-empty when a per-tenant quota shed this
}

func (e *OverloadError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("campaign: tenant %s over quota: %d open cells at limit %d; retry in %s",
			e.Tenant, e.Open, e.Limit, e.RetryAfter)
	}
	return fmt.Sprintf("campaign: coordinator overloaded: %d open cells at limit %d; retry in %s",
		e.Open, e.Limit, e.RetryAfter)
}

// fenceErr re-verifies the coordinator's fencing epoch before a write to
// shared state. Unfenced coordinators (Fence == nil) always pass. A
// *store.FencedError means a standby claimed a newer epoch: this
// coordinator is deposed and the write must not happen.
func (c *Coordinator) fenceErr() error {
	if c.opts.Fence == nil {
		return nil
	}
	if err := c.opts.Fence.Check(); err != nil {
		c.metrics().Counter("campaign.fenced.writes").NonGolden().Inc()
		return err
	}
	return nil
}

// openCellsLocked counts cells not yet resolved across running campaigns —
// in total, and for the given tenant ("" skips the per-tenant count).
func (c *Coordinator) openCellsLocked(tenant string) (open, tenantOpen int) {
	for _, camp := range c.campaigns {
		if camp.state != StateRunning {
			continue
		}
		for _, cell := range camp.cells {
			if cell.state == cellPending || cell.state == cellLeased {
				open++
				if camp.tenant == tenant {
					tenantOpen++
				}
			}
		}
	}
	return open, tenantOpen
}

// Submit registers a campaign, probing the store for every cell first:
// already-computed cells are marked done immediately and never dispatched
// (store-first dedupe). Returns the campaign id and how many cells were
// served from the store. A submission whose unserved cells would push the
// open-cell count past MaxPendingCells is shed with *OverloadError before
// any state is created.
func (c *Coordinator) Submit(spec Spec) (id string, cells, hits int, err error) {
	if err := spec.Validate(); err != nil {
		return "", 0, 0, err
	}
	if err := c.fenceErr(); err != nil {
		return "", 0, 0, err
	}
	camp := &campaignState{spec: spec, tenant: tenantOf(spec), state: StateRunning, trace: obs.NewTraceID()}
	for _, cs := range spec.Cells() {
		st := &cellState{CellSpec: cs, state: cellPending}
		// The probe uses Get, not a cheaper existence check, so a corrupt
		// block degrades to a recompute here rather than a failed assembly
		// later.
		if results := c.opts.Store.Get(cs.Key, cs.Runs, cs.SeedBase); results != nil {
			st.state = cellDone
			st.fromHit = true
			hits++
			c.metrics().Counter("campaign.store.hits").Inc()
		} else {
			c.metrics().Counter("campaign.store.misses").Inc()
		}
		camp.cells = append(camp.cells, st)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	open, tenantOpen := c.openCellsLocked(camp.tenant)
	adding := len(camp.cells) - hits
	if lim := c.opts.MaxPendingCells; lim > 0 && open+adding > lim {
		c.metrics().Counter("campaign.overload.shed").NonGolden().Inc()
		return "", 0, 0, &OverloadError{Open: open, Limit: lim, RetryAfter: 5 * time.Second}
	}
	if lim := c.opts.MaxPendingPerTenant; lim > 0 && tenantOpen+adding > lim {
		c.metrics().Counter("campaign.overload.shed_tenant").NonGolden().Inc()
		return "", 0, 0, &OverloadError{Open: tenantOpen, Limit: lim, RetryAfter: 5 * time.Second, Tenant: camp.tenant}
	}
	c.nextCamp++
	camp.id = fmt.Sprintf("c%04d", c.nextCamp)
	camp.submitted = c.opts.now()
	c.campaigns = append(c.campaigns, camp)
	c.byID[camp.id] = camp
	c.eventLocked(camp, "campaign submitted",
		obs.F("cells", len(camp.cells)), obs.F("store_hits", hits),
		obs.F("runs", spec.Runs), obs.F("seed", spec.Seed),
		obs.F("tenant", camp.tenant), obs.F("trace", camp.trace))
	c.refreshLocked(camp)
	// The submit record, seq 1, rides on the "campaign submitted" line: a
	// restart rebuilds the campaign from it (persist.go).
	sub := &submitRecord{Spec: spec, Trace: camp.trace, Submitted: camp.submitted.UnixNano()}
	for _, cell := range camp.cells {
		if cell.fromHit {
			sub.FromHit = append(sub.FromHit, cell.Bench)
		}
	}
	camp.seq = 1
	camp.batch[0].rec = &journalRecord{Seq: 1, State: camp.state, Submit: sub}
	c.flushLocked(camp)
	return camp.id, len(camp.cells), hits, nil
}

// refreshLocked recomputes a campaign's terminal state and, on reaching
// one, emits the terminal event. Must be called with c.mu held.
func (c *Coordinator) refreshLocked(camp *campaignState) {
	if camp.state != StateRunning {
		return
	}
	done := 0
	for _, cell := range camp.cells {
		switch cell.state {
		case cellFailed:
			camp.state = StateFailed
			camp.err = fmt.Sprintf("cell %s failed after %d attempts: %s", cell.Bench, cell.attempts, cell.err)
			c.eventLocked(camp, "campaign failed", obs.F("cell", cell.Bench), obs.F("err", cell.err))
			return
		case cellDone:
			done++
		}
	}
	if done == len(camp.cells) {
		camp.state = StateDone
		c.eventLocked(camp, "campaign complete", obs.F("cells", done))
	}
}

// expireLocked requeues cells whose leases have missed their deadline.
// Called lazily from every scheduling entry point; must hold c.mu.
func (c *Coordinator) expireLocked() {
	now := c.opts.now()
	for id, l := range c.leases {
		if l.expired || now.Before(l.deadline) {
			continue
		}
		// The lease is retired, not deleted: a worker that was merely slow
		// can still post its (deterministic, therefore correct) results
		// against the expired lease, and the done-state guard makes the
		// duplicate a no-op.
		l.expired = true
		c.metrics().Counter("campaign.heartbeats.missed").Inc()
		c.metrics().Counter("campaign.leases.expired").Inc()
		span := obs.SpanID(l.campaign.id, l.cell.Bench, l.attempt)
		if l.cell.state != cellLeased || l.cell.lease != id {
			// The cell already completed by a late post or moved to another
			// lease: journal the retirement itself.
			c.eventLocked(l.campaign, "lease retired (cell already resolved)", obs.F("cell", l.cell.Bench),
				obs.F("worker", l.worker), obs.F("trace", l.campaign.trace), obs.F("span", span))
			c.commitLocked(l.campaign, l.cell, l)
			continue
		}
		c.eventLocked(l.campaign, "lease expired", obs.F("cell", l.cell.Bench),
			obs.F("worker", l.worker), obs.F("attempt", l.cell.attempts),
			obs.F("trace", l.campaign.trace), obs.F("span", span))
		c.requeueLocked(l.campaign, l.cell, "lease expired (worker presumed dead)")
		c.commitLocked(l.campaign, l.cell, l)
	}
}

// requeueLocked puts a leased cell back in the queue or fails it when its
// attempts are exhausted. Must hold c.mu.
func (c *Coordinator) requeueLocked(camp *campaignState, cell *cellState, reason string) {
	cell.lease = 0
	cell.err = reason
	if cell.attempts >= c.opts.MaxAttempts {
		cell.state = cellFailed
		c.refreshLocked(camp)
		return
	}
	cell.state = cellPending
	c.metrics().Counter("campaign.requeues").Inc()
	// Churn counts lease turnover that produced no completion — expiries,
	// drains, and error requeues — the "wasted lease" signal an operator
	// watches for flapping workers.
	c.metrics().Counter("campaign.leases.churn").Inc()
	c.eventLocked(camp, "cell requeued", obs.F("cell", cell.Bench),
		obs.F("attempt", cell.attempts), obs.F("reason", reason),
		obs.F("trace", camp.trace))
}

// Lease is the work grant the coordinator hands a worker.
type Lease struct {
	ID       uint64            `json:"id"`
	Campaign string            `json:"campaign"`
	Bench    string            `json:"bench"`
	Runs     int               `json:"runs"`
	SeedBase uint64            `json:"seed_base"`
	Config   experiment.Config `json:"config"`
	// TTLSeconds is how often the worker must heartbeat (it should do so at
	// a fraction of this).
	TTLSeconds float64 `json:"ttl_seconds"`
	Attempt    int     `json:"attempt"`
	// Trace is the campaign's distributed trace ID and Span names this
	// cell attempt within it; the worker carries both back on every
	// heartbeat and completion via the X-Sz-Trace/X-Sz-Span headers.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// AcquireResponse answers a lease request. A nil Lease with Remaining > 0
// means "all work is leased out, poll again"; Remaining == 0 means the
// farm is idle.
type AcquireResponse struct {
	Lease *Lease `json:"lease,omitempty"`
	// Remaining counts cells not yet done or failed across all campaigns
	// (pending + leased), so idle-exiting workers can tell "nothing left"
	// from "nothing for me right now".
	Remaining int `json:"remaining"`
}

// Acquire grants a pending cell to the worker — chosen by the weighted
// round-robin tenant scheduler in scheduler.go — or reports how much work
// remains in flight. A grant whose journal append is refused as fenced is
// withheld and the *store.FencedError returned: the successor never sees
// that lease id and may issue it for another cell.
func (c *Coordinator) Acquire(worker string) (AcquireResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	if worker != "" {
		c.workerSeen[worker] = c.opts.now()
	}
	grant, remaining := c.scheduleLocked(worker)
	resp := AcquireResponse{Remaining: remaining}
	if grant != nil {
		if err := c.commitLocked(grant.campaign, grant.cell, grant); err != nil {
			return AcquireResponse{}, err
		}
		resp.Lease = &Lease{
			ID:         grant.id,
			Campaign:   grant.campaign.id,
			Bench:      grant.cell.Bench,
			Runs:       grant.cell.Runs,
			SeedBase:   grant.cell.SeedBase,
			Config:     grant.campaign.spec.Config,
			TTLSeconds: c.opts.LeaseTTL.Seconds(),
			Attempt:    grant.cell.attempts,
			Trace:      grant.campaign.trace,
			Span:       obs.SpanID(grant.campaign.id, grant.cell.Bench, grant.attempt),
		}
	}
	return resp, nil
}

// Heartbeat extends a lease. Returns false when the lease is unknown or
// already expired — the worker should abandon the cell (a successor lease
// may already be running it; determinism makes the duplicate harmless, but
// abandoning saves the wasted work).
//
// A heartbeat moves the deadline in memory. Once heartbeats have moved it
// half a LeaseTTL past the deadline the journal holds, the lease record is
// journaled again on a "lease extended" line; between those lines a lease
// costs no journal write. A restarted coordinator therefore restores a
// deadline more than half a TTL after the worker's last heartbeat, and
// workers heartbeat less than half a TTL apart (jitterDur(TTL/3)), so it
// does not expire a lease its worker kept alive and compute the cell
// again.
func (c *Coordinator) Heartbeat(leaseID uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	l, ok := c.leases[leaseID]
	if !ok || l.expired {
		return false
	}
	l.deadline = c.opts.now().Add(c.opts.LeaseTTL)
	c.workerSeen[l.worker] = c.opts.now()
	if l.deadline.Sub(l.journaled) >= c.opts.LeaseTTL/2 {
		c.eventLocked(l.campaign, "lease extended", obs.F("cell", l.cell.Bench),
			obs.F("worker", l.worker), obs.F("lease", l.id),
			obs.F("trace", l.campaign.trace), obs.F("span", obs.SpanID(l.campaign.id, l.cell.Bench, l.attempt)))
		c.commitLocked(l.campaign, l.cell, l)
	}
	return true
}

// CompleteRequest posts a finished (or failed) cell back.
type CompleteRequest struct {
	Worker  string                 `json:"worker"`
	Results []experiment.RunResult `json:"results,omitempty"`
	// Error, when non-empty, reports a compute failure; the cell is
	// requeued or failed.
	Error string `json:"error,omitempty"`
	// Events carries the worker's per-cell JSONL telemetry lines (obs wire
	// format), folded into the campaign's event stream.
	Events []json.RawMessage `json:"events,omitempty"`
	// IdempotencyKey, when non-empty, deduplicates retried posts of this
	// completion: a retry after a lost response returns the original
	// outcome instead of reprocessing (and instead of surfacing "unknown
	// lease" for an already-resolved one). The farm client derives it from
	// the lease id, which is single-use.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Trace and Span identify the attempt in the campaign's distributed
	// trace. The HTTP layer fills them from the X-Sz-Trace/X-Sz-Span
	// request headers (headers win over the body); the coordinator falls
	// back to its own lease-derived values when both are absent.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// SpanRecord is the worker's timing record for the attempt — the
	// distributed half of the campaign trace, folded into the event log
	// for timeline reconstruction and into the artifact's provenance.
	SpanRecord *SpanRecord `json:"span_record,omitempty"`
}

// SpanRecord is one worker-side cell-attempt span: when the attempt
// started and finished on the worker's clock. Wall-clock by nature, so
// everything here is non-golden telemetry; it never touches the golden
// artifact path.
type SpanRecord struct {
	Trace       string `json:"trace,omitempty"`
	Span        string `json:"span,omitempty"`
	Worker      string `json:"worker,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	EndUnixNs   int64  `json:"end_unix_ns"`
}

// RunSeconds is the span's duration (clamped at zero).
func (s *SpanRecord) RunSeconds() float64 {
	if s == nil || s.EndUnixNs <= s.StartUnixNs {
		return 0
	}
	return float64(s.EndUnixNs-s.StartUnixNs) / 1e9
}

// recordIdemLocked remembers a completion outcome under its idempotency
// key, evicting the oldest key past the window. Must hold c.mu.
func (c *Coordinator) recordIdemLocked(key, outcome string) {
	if key == "" {
		return
	}
	if _, seen := c.idem[key]; !seen {
		c.idemOrder = append(c.idemOrder, key)
		if len(c.idemOrder) > idemCap {
			delete(c.idem, c.idemOrder[0])
			c.idemOrder = c.idemOrder[1:]
		}
	}
	c.idem[key] = outcome
}

// Complete resolves a lease. Late completions (expired lease, cell already
// re-leased or done) are accepted when they carry valid results — the cell
// is deterministic, so any completion is the completion; the store's
// immutability makes duplicates no-ops. Retried posts carrying an
// idempotency key already seen return the first post's outcome.
func (c *Coordinator) Complete(leaseID uint64, req CompleteRequest) error {
	c.mu.Lock()
	if outcome, seen := c.idem[req.IdempotencyKey]; req.IdempotencyKey != "" && seen {
		c.metrics().Counter("campaign.completions.deduped").NonGolden().Inc()
		c.mu.Unlock()
		if outcome == "" {
			return nil
		}
		return fmt.Errorf("%s", outcome)
	}
	l, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("campaign: unknown or expired lease %d", leaseID)
	}
	camp, cell := l.campaign, l.cell
	// The attempt's trace identity: headers/body win, the lease is the
	// fallback, so even a bare post lands in the right trace.
	trace, span := req.Trace, req.Span
	if trace == "" {
		trace = camp.trace
	}
	if span == "" {
		span = obs.SpanID(camp.id, cell.Bench, l.attempt)
	}

	if req.Error != "" {
		delete(c.leases, leaseID)
		c.forwardLocked(camp, cell, &req, l.attempt, trace, span)
		c.eventLocked(camp, "cell failed on worker", obs.F("cell", cell.Bench),
			obs.F("worker", req.Worker), obs.F("err", req.Error),
			obs.F("trace", trace), obs.F("span", span))
		if cell.state == cellLeased && cell.lease == leaseID {
			c.requeueLocked(camp, cell, req.Error)
		}
		c.recordIdemLocked(req.IdempotencyKey, "")
		c.commitLocked(camp, cell, l)
		c.mu.Unlock()
		return nil
	}
	if len(req.Results) != cell.Runs {
		err := fmt.Errorf("campaign: cell %s: %d results for %d runs", cell.Bench, len(req.Results), cell.Runs)
		c.recordIdemLocked(req.IdempotencyKey, err.Error())
		c.mu.Unlock()
		return err
	}
	// Persist outside the scheduling decision but inside one logical
	// completion: the store write is what makes the cell durable. A crash
	// between the Put and the journal append below loses only the
	// transition, never the work — restart recovers the cell as done from
	// the store block itself.
	delete(c.leases, leaseID)
	key, runs, seedBase := cell.Key, cell.Runs, cell.SeedBase
	c.mu.Unlock()
	// The fencing epoch is re-verified immediately before the store write:
	// a deposed coordinator must not write blocks (or journal state) the
	// promoted one no longer expects. Not recorded under the idempotency
	// key — the worker's retry should land on the new active coordinator,
	// which restored this lease from the journal and completes it there.
	if err := c.fenceErr(); err != nil {
		return err
	}
	if err := c.opts.Store.Put(key, runs, seedBase, req.Results); err != nil {
		// Deliberately not recorded under the idempotency key, and the
		// lease goes back into the table: a retry of this post retries the
		// store write.
		c.mu.Lock()
		if _, taken := c.leases[leaseID]; !taken {
			c.leases[leaseID] = l
		}
		c.mu.Unlock()
		return fmt.Errorf("campaign: storing cell %s: %w", cell.Bench, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forwardLocked(camp, cell, &req, l.attempt, trace, span)
	if cell.state != cellDone {
		cell.state = cellDone
		cell.err = ""
		cell.prov = &bench.Provenance{
			Trace:       trace,
			Span:        span,
			Worker:      req.Worker,
			Coordinator: c.opts.Identity,
			Attempts:    cell.attempts,
			RunSeconds:  req.SpanRecord.RunSeconds(),
		}
		if c.opts.Fence != nil {
			cell.prov.Epoch = c.opts.Fence.Epoch()
		}
		if !camp.submitted.IsZero() && !cell.firstGrant.IsZero() {
			cell.prov.QueueWaitSeconds = cell.firstGrant.Sub(camp.submitted).Seconds()
		}
		c.metrics().Counter("campaign.cells.completed").Inc()
		c.noteCompletionLocked()
		c.eventLocked(camp, "cell complete", obs.F("cell", cell.Bench),
			obs.F("worker", req.Worker), obs.F("runs", runs),
			obs.F("trace", trace), obs.F("span", span))
		c.refreshLocked(camp)
	} else {
		c.eventLocked(camp, "late completion ignored (cell already done)", obs.F("cell", cell.Bench),
			obs.F("worker", req.Worker), obs.F("trace", trace), obs.F("span", span))
	}
	c.recordIdemLocked(req.IdempotencyKey, "")
	c.commitLocked(camp, cell, l)
	return nil
}

// forwardLocked queues a completion's worker telemetry — each line
// compacted to exactly one journal line — and the worker's span record as
// a "cell span" event, so the timeline can draw the worker-side span
// without a second channel. A worker line that is not JSON, or that
// carries the journal's record field, is rejected and counted: only the
// coordinator writes scheduling state. Must hold c.mu.
func (c *Coordinator) forwardLocked(camp *campaignState, cell *cellState, req *CompleteRequest, attempt int, trace, span string) {
	for _, raw := range req.Events {
		var line bytes.Buffer
		if err := json.Compact(&line, raw); err != nil || hasRecordField(line.Bytes()) {
			c.metrics().Counter("campaign.events.rejected").NonGolden().Inc()
			continue
		}
		line.WriteByte('\n')
		camp.batch = append(camp.batch, pendingEvent{raw: line.Bytes()})
	}
	if sr := req.SpanRecord; sr != nil {
		c.eventLocked(camp, "cell span", obs.F("cell", cell.Bench),
			obs.F("worker", req.Worker), obs.F("attempt", attempt),
			obs.F("trace", trace), obs.F("span", span),
			obs.F("start_unix_ns", sr.StartUnixNs), obs.F("end_unix_ns", sr.EndUnixNs))
	}
}

// Release hands a leased cell back to the queue without burning one of its
// attempts — the drain path: a worker told to shut down returns its
// in-flight lease immediately instead of letting it idle until TTL expiry
// delays the requeue, and the abandonment is not a failure, so the attempt
// count is restored. Returns false for an unknown or already-expired lease.
func (c *Coordinator) Release(leaseID uint64, worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok || l.expired {
		return false
	}
	l.expired = true
	if l.cell.state == cellLeased && l.cell.lease == leaseID {
		if l.cell.attempts > 0 {
			l.cell.attempts--
		}
		l.cell.lease = 0
		l.cell.state = cellPending
		c.metrics().Counter("campaign.leases.released").NonGolden().Inc()
		c.metrics().Counter("campaign.leases.churn").Inc()
		c.eventLocked(l.campaign, "lease released (worker draining)",
			obs.F("cell", l.cell.Bench), obs.F("worker", worker),
			obs.F("trace", l.campaign.trace),
			obs.F("span", obs.SpanID(l.campaign.id, l.cell.Bench, l.attempt)))
	} else {
		c.eventLocked(l.campaign, "lease released (cell already resolved)",
			obs.F("cell", l.cell.Bench), obs.F("worker", worker),
			obs.F("trace", l.campaign.trace),
			obs.F("span", obs.SpanID(l.campaign.id, l.cell.Bench, l.attempt)))
	}
	c.commitLocked(l.campaign, l.cell, l)
	return true
}

// CellStatus is one cell's scheduling state in a status report.
type CellStatus struct {
	Bench    string `json:"bench"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	StoreHit bool   `json:"store_hit"`
	Error    string `json:"error,omitempty"`
}

// Status is a campaign's progress snapshot.
type Status struct {
	ID        string       `json:"id"`
	Tenant    string       `json:"tenant,omitempty"`
	State     string       `json:"state"`
	Cells     int          `json:"cells"`
	Done      int          `json:"done"`
	Pending   int          `json:"pending"`
	Leased    int          `json:"leased"`
	Failed    int          `json:"failed"`
	StoreHits int          `json:"store_hits"`
	Error     string       `json:"error,omitempty"`
	Detail    []CellStatus `json:"detail,omitempty"`
}

// Status reports one campaign (detail included), or false if unknown.
func (c *Coordinator) Status(id string) (Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	camp, ok := c.byID[id]
	if !ok {
		return Status{}, false
	}
	return c.statusLocked(camp, true), true
}

// StatusAll summarizes every campaign in submission order.
func (c *Coordinator) StatusAll() []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	out := make([]Status, 0, len(c.campaigns))
	for _, camp := range c.campaigns {
		out = append(out, c.statusLocked(camp, false))
	}
	return out
}

func (c *Coordinator) statusLocked(camp *campaignState, detail bool) Status {
	st := Status{ID: camp.id, Tenant: camp.tenant, State: camp.state, Cells: len(camp.cells), Error: camp.err}
	for _, cell := range camp.cells {
		switch cell.state {
		case cellDone:
			st.Done++
		case cellPending:
			st.Pending++
		case cellLeased:
			st.Leased++
		case cellFailed:
			st.Failed++
		}
		if cell.fromHit {
			st.StoreHits++
		}
		if detail {
			st.Detail = append(st.Detail, CellStatus{
				Bench: cell.Bench, State: cell.state, Attempts: cell.attempts,
				StoreHit: cell.fromHit, Error: cell.err,
			})
		}
	}
	return st
}

// Artifact assembles (and caches) a completed campaign's merged artifact by
// running the ordinary collection path in store-only mode: the exact code
// that builds a local artifact, with the compute branch forbidden. This is
// the mechanism behind the byte-identity guarantee — there is no separate
// "merge" implementation to drift.
func (c *Coordinator) Artifact(ctx context.Context, id string) ([]byte, error) {
	c.mu.Lock()
	camp, ok := c.byID[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	if camp.state != StateDone {
		state := camp.state
		c.mu.Unlock()
		return nil, fmt.Errorf("campaign: %s is %s, artifact available once done", id, state)
	}
	if camp.artifact != nil {
		buf := camp.artifact
		c.mu.Unlock()
		return buf, nil
	}
	spec := camp.spec
	c.mu.Unlock()

	opts, err := spec.CollectOptions()
	if err != nil {
		return nil, err
	}
	ctx = experiment.WithStoreOnly(experiment.WithCellStore(ctx, c.opts.Store.Cells()))
	art, err := bench.Collect(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: assembling %s from store: %w", id, err)
	}
	buf, err := art.Encode()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	camp.artifact = buf
	c.mu.Unlock()
	return buf, nil
}

// errUnknownCampaign marks a lookup of a campaign this coordinator does
// not hold.
var errUnknownCampaign = errors.New("campaign: unknown campaign")

// events reads a campaign's journal, <store>/campaigns/<id>.events.jsonl,
// from byte offset from: every whole line appended since, across restarts
// and failovers, so every coordinator on the store serves the same bytes
// for the same offset. An offset that is neither 0 nor the end of a line
// is an error wrapping store.ErrLogCursor. terminal reports whether the
// campaign had ended before the read began, and so whether buf reaches
// its last transition.
func (c *Coordinator) events(id string, from int64) (buf []byte, terminal bool, err error) {
	c.mu.Lock()
	camp, ok := c.byID[id]
	if ok {
		terminal = camp.state != StateRunning
	}
	c.mu.Unlock()
	if !ok {
		return nil, false, fmt.Errorf("%w %q", errUnknownCampaign, id)
	}
	buf, err = c.area.LoadLog(id+".events", from)
	return buf, terminal, err
}

// Handler returns the coordinator's HTTP API.
//
//	POST /v1/campaigns                submit a Spec -> {id, cells, store_hits}
//	GET  /v1/campaigns                all campaign statuses
//	GET  /v1/campaigns/{id}           one campaign's status (with cell detail)
//	GET  /v1/campaigns/{id}/artifact  merged artifact (campaign must be done)
//	GET  /v1/campaigns/{id}/events    the campaign's JSONL journal from byte
//	                                  cursor ?since=N (default 0), with the
//	                                  X-Sz-Events-* cursor headers
//	POST /v1/leases                   {worker} -> AcquireResponse
//	POST /v1/leases/{id}/heartbeat    extend the lease
//	POST /v1/leases/{id}/complete     CompleteRequest
//	POST /v1/leases/{id}/release      {worker}; drain path, returns the cell
//	GET  /v1/coordinator              this process's role, identity, and
//	                                  fencing epoch (failover probe target)
//	GET  /v1/scaling                  autoscaling signals (ScalingReport)
//	GET  /metrics                     Prometheus text exposition (includes
//	                                  non-golden series; operational surface)
//	GET  /healthz                     liveness probe
//
// Every response carries X-SZ-Coordinator (identity) and X-SZ-Epoch
// (fencing epoch, 0 when unfenced) headers so clients can attribute
// exchanges across a failover. Submission overload surfaces as 429 with a
// Retry-After header; a fenced (deposed-coordinator) write surfaces as 503
// so the client retries against the promoted coordinator. The acquire and
// complete handlers carry fault-injection sites (coord.acquire,
// coord.complete) for chaos tests.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "store_blocks": c.opts.Store.Len()})
	})
	mux.HandleFunc("GET /v1/coordinator", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Info())
	})
	mux.HandleFunc("GET /v1/scaling", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Scaling())
	})
	mux.Handle("GET /metrics", c.metricsHandler())
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
			return
		}
		id, cells, hits, err := c.Submit(spec)
		if err != nil {
			var over *OverloadError
			if errors.As(err, &over) {
				w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter/time.Second)))
				httpError(w, http.StatusTooManyRequests, err)
				return
			}
			var fenced *store.FencedError
			if errors.As(err, &fenced) {
				httpFenced(w, err)
				return
			}
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, SubmitResponse{ID: id, Cells: cells, StoreHits: hits})
	})
	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.StatusAll())
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/artifact", func(w http.ResponseWriter, r *http.Request) {
		buf, err := c.Artifact(r.Context(), r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		// ?provenance=1 decorates a copy with each cell's measurement
		// pedigree; the cached plain artifact — the golden bytes — is
		// never touched.
		if r.URL.Query().Get("provenance") == "1" {
			if buf, err = c.decorateProvenance(r.PathValue("id"), buf); err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/events", c.handleEvents)
	mux.HandleFunc("POST /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		if err := faultinject.Hit(r.Context(), faultinject.SiteCoordAcquire); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %w", err))
			return
		}
		resp, err := c.Acquire(req.Worker)
		if err != nil {
			httpFenced(w, err)
			return
		}
		if resp.Lease != nil {
			// The grant's trace context rides the response headers too, so
			// transport-level tooling sees the same identifiers as the body.
			obs.TraceContext{TraceID: resp.Lease.Trace, SpanID: resp.Lease.Span}.Inject(w.Header())
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad lease id: %w", err))
			return
		}
		if !c.Heartbeat(id) {
			httpError(w, http.StatusGone, fmt.Errorf("lease %d expired or unknown", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		if err := faultinject.Hit(r.Context(), faultinject.SiteCoordComplete); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad lease id: %w", err))
			return
		}
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding completion: %w", err))
			return
		}
		if tc := obs.ExtractTrace(r.Header); tc.Valid() {
			req.Trace, req.Span = tc.TraceID, tc.SpanID
		}
		if err := c.Complete(id, req); err != nil {
			// A fenced completion is retryable — the worker should reprobe
			// and post to the promoted coordinator, which restored this
			// lease from the journal. Everything else is terminal for the
			// lease (gone).
			var fenced *store.FencedError
			if errors.As(err, &fenced) {
				httpFenced(w, err)
				return
			}
			httpError(w, http.StatusGone, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/leases/{id}/release", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad lease id: %w", err))
			return
		}
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding release: %w", err))
			return
		}
		if !c.Release(id, req.Worker) {
			httpError(w, http.StatusGone, fmt.Errorf("lease %d expired or unknown", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return c.withCoordHeaders(mux)
}

// withCoordHeaders stamps every response with this coordinator's identity
// and fencing epoch, so clients and chaos-test logs can attribute an
// exchange to a specific coordinator incarnation across a failover.
func (c *Coordinator) withCoordHeaders(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderCoordinator, c.opts.Identity)
		var epoch uint64
		if c.opts.Fence != nil {
			epoch = c.opts.Fence.Epoch()
		}
		w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
		// Echo the caller's trace context so both halves of every exchange
		// carry the same identifiers.
		obs.ExtractTrace(r.Header).Inject(w.Header())
		next.ServeHTTP(w, r)
	})
}

// metricsHandler serves the coordinator's registry in Prometheus text
// format, refreshing the derived operational gauges (backlog, inflight,
// lease utilization, per-tenant queue depths) from the scaling report
// first so a scrape always sees current queue state.
func (c *Coordinator) metricsHandler() http.Handler {
	inner := c.metrics().PromHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.refreshGauges()
		inner.ServeHTTP(w, r)
	})
}

// refreshGauges derives the operational gauges from the scaling report.
// Gauges are environmental (never golden), so the tenant label rides in
// the registry key and surfaces as a Prometheus label.
func (c *Coordinator) refreshGauges() {
	m := c.metrics()
	if m == nil {
		return
	}
	rep := c.Scaling()
	m.Gauge("campaign.backlog").Set(float64(rep.Backlog))
	m.Gauge("campaign.inflight").Set(float64(rep.Inflight))
	m.Gauge("campaign.workers.live").Set(float64(rep.Workers))
	m.Gauge("campaign.lease.utilization").Set(rep.LeaseUtilization)
	m.Gauge("campaign.completions.per_second").Set(rep.CompletionsPerSecond)
	// The scaling report only lists tenants with running campaigns; a
	// tenant whose queue just drained must go to zero, not disappear from
	// the scrape — so derive the tenant set from every known campaign.
	perTenant := map[string]TenantScaling{}
	for _, ts := range rep.Tenants {
		perTenant[ts.Tenant] = ts
	}
	c.mu.Lock()
	for _, camp := range c.campaigns {
		if _, ok := perTenant[camp.tenant]; !ok {
			perTenant[camp.tenant] = TenantScaling{Tenant: camp.tenant, Weight: c.tenantWeight(camp.tenant)}
		}
	}
	c.mu.Unlock()
	for tenant, ts := range perTenant {
		m.Gauge(`campaign.tenant.pending{tenant="` + tenant + `"}`).Set(float64(ts.Pending))
		m.Gauge(`campaign.tenant.inflight{tenant="` + tenant + `"}`).Set(float64(ts.Inflight))
		m.Gauge(`campaign.tenant.weight{tenant="` + tenant + `"}`).Set(float64(ts.Weight))
	}
}

// decorateProvenance attaches each cell's measurement pedigree to a copy
// of the campaign's (already-assembled) artifact. Store-hit cells carry a
// minimal block — the samples were deduplicated, so their pedigree is
// the store itself.
func (c *Coordinator) decorateProvenance(id string, plain []byte) ([]byte, error) {
	art, err := bench.ReadBytes(plain)
	if err != nil {
		return nil, fmt.Errorf("campaign: decoding %s artifact: %w", id, err)
	}
	c.mu.Lock()
	camp, ok := c.byID[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	prov := make(map[string]*bench.Provenance, len(camp.cells))
	for _, cell := range camp.cells {
		switch {
		case cell.prov != nil:
			cp := *cell.prov
			prov[cell.Bench] = &cp
		case cell.fromHit:
			prov[cell.Bench] = &bench.Provenance{Trace: camp.trace, StoreHit: true}
		}
	}
	c.mu.Unlock()
	for i := range art.Benchmarks {
		art.Benchmarks[i].Provenance = prov[art.Benchmarks[i].Name]
	}
	return art.Encode()
}

// Response headers identifying the answering coordinator.
const (
	HeaderCoordinator = "X-Sz-Coordinator"
	HeaderEpoch       = "X-Sz-Epoch"
)

// CoordinatorInfo answers GET /v1/coordinator: which process answered,
// its role, and the coordination-lease epoch it holds (or observes, for a
// standby). Clients probe this endpoint across their server list to find
// the active coordinator after a failover.
type CoordinatorInfo struct {
	// Role is RoleActive or RoleStandby.
	Role string `json:"role"`
	// Self identifies the answering process.
	Self string `json:"self"`
	// Holder identifies the lease holder (== Self when Role is active).
	Holder string `json:"holder,omitempty"`
	// Epoch is the fencing epoch (0 when unfenced).
	Epoch uint64 `json:"epoch"`
	// LeaseExpiresInS is the observed heartbeat headroom (standby reports
	// only; the active holder renews its own lease).
	LeaseExpiresInS float64 `json:"lease_expires_in_s,omitempty"`
	// StoreBlocks sizes the shared store, a cheap liveness signal.
	StoreBlocks int `json:"store_blocks"`
}

// Coordinator roles reported by /v1/coordinator.
const (
	RoleActive  = "active"
	RoleStandby = "standby"
)

// Info reports this coordinator's identity and fencing epoch. A bare
// Coordinator is always active (standby processes answer through HAServer,
// which has no Coordinator until promotion).
func (c *Coordinator) Info() CoordinatorInfo {
	info := CoordinatorInfo{
		Role: RoleActive, Self: c.opts.Identity, Holder: c.opts.Identity,
		StoreBlocks: c.opts.Store.Len(),
	}
	if c.opts.Fence != nil {
		info.Epoch = c.opts.Fence.Epoch()
		info.Holder = c.opts.Fence.Holder()
	}
	return info
}

// Event-cursor response headers: the byte cursor to poll from next (the
// request's cursor plus the body's length), and whether the campaign is
// terminal — together they make a poll loop that follows a campaign to
// completion without holding a connection open.
const (
	HeaderEventsNext     = "X-Sz-Events-Next"
	HeaderEventsTerminal = "X-Sz-Events-Terminal"
)

// handleEvents serves a campaign's journal from byte cursor ?since=N with
// the cursor headers above. A cursor that is not a line end of the journal
// — negative, malformed, mid-line or past the end — is a 400.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	var from int64
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad since cursor %q", s))
			return
		}
		from = n
	}
	buf, terminal, err := c.events(r.PathValue("id"), from)
	switch {
	case errors.Is(err, errUnknownCampaign):
		httpError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, store.ErrLogCursor):
		httpError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set(HeaderEventsNext, strconv.FormatInt(from+int64(len(buf)), 10))
	terminalHeader := "0"
	if terminal {
		terminalHeader = "1"
	}
	w.Header().Set(HeaderEventsTerminal, terminalHeader)
	w.Write(buf)
}

// SubmitResponse answers a campaign submission.
type SubmitResponse struct {
	ID        string `json:"id"`
	Cells     int    `json:"cells"`
	StoreHits int    `json:"store_hits"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// httpFenced answers a write refused because a newer fencing epoch deposed
// this coordinator: 503 with Retry-After, so the client reprobes and
// retries against the promoted coordinator.
func httpFenced(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, err)
}
