package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// Worker pulls leases from a coordinator, computes cells through the local
// experiment engine — inheriting its pool parallelism, per-cell watchdog,
// and transient-retry semantics — and posts results back. Run returns when
// the context is cancelled, or, with IdleExit, when the farm reports no
// remaining work.
type Worker struct {
	// Client reaches the coordinator (required).
	Client *Client
	// Name identifies the worker in leases and events.
	Name string
	// Poll is the idle poll interval (default 500ms).
	Poll time.Duration
	// IdleExit exits Run when the coordinator reports zero remaining cells.
	IdleExit bool
	// CircuitMax caps the acquire backoff when the coordinator is
	// unreachable (default 30s). Consecutive acquire failures double the
	// poll delay up to this cap — a circuit breaker, so a dead coordinator
	// costs a fleet one request per worker per CircuitMax, not a poll-rate
	// hammering — and one success snaps the delay back to Poll.
	CircuitMax time.Duration
	// Obs receives worker counters (worker.cells.completed,
	// worker.cells.failed — golden per assigned work; worker.leases.acquired
	// and worker.heartbeats.sent are scheduling-dependent and non-golden)
	// and the worker log.
	Obs *obs.Scope
}

func (w *Worker) metrics() *obs.Registry {
	if w.Obs != nil {
		return w.Obs.Metrics
	}
	return nil
}

func (w *Worker) logger() *obs.Logger {
	if w.Obs != nil {
		return w.Obs.Log
	}
	return nil
}

// Run is the worker loop. Transport errors are retried with the poll
// delay — a worker outliving a coordinator restart is part of the fault
// model — but a cancelled context always wins.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		return fmt.Errorf("campaign: worker needs a client")
	}
	if w.Name == "" {
		w.Name = "worker"
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	circuitMax := w.CircuitMax
	if circuitMax <= 0 {
		circuitMax = 30 * time.Second
	}
	if w.Obs != nil {
		w.Obs.Metrics.Counter("worker.leases.acquired").NonGolden()
		w.Obs.Metrics.Counter("worker.heartbeats.sent").NonGolden()
		w.Obs.Metrics.Histogram("worker.cell.seconds").NonGolden()
	}
	backoff := poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if experiment.Draining(ctx) {
			// Shutdown was requested (first SIGINT/SIGTERM): the in-flight
			// cell has finished and been posted (or its lease released);
			// exit cleanly instead of taking new leases.
			w.logger().Info("drain requested; worker exiting", obs.F("worker", w.Name))
			return nil
		}
		resp, err := w.Client.Acquire(ctx, w.Name)
		if err != nil {
			w.logger().Warn("lease request failed", obs.F("err", err.Error()),
				obs.F("backoff", backoff.String()))
			w.metrics().Counter("worker.acquire.failures").NonGolden().Inc()
			if serr := sleepCtx(ctx, jitterDur(backoff)); serr != nil {
				return serr
			}
			if backoff *= 2; backoff > circuitMax {
				backoff = circuitMax
			}
			continue
		}
		backoff = poll
		if resp.Lease == nil {
			if resp.Remaining == 0 && w.IdleExit {
				w.logger().Info("farm idle, exiting", obs.F("worker", w.Name))
				return nil
			}
			if serr := sleepCtx(ctx, jitterDur(poll)); serr != nil {
				return serr
			}
			continue
		}
		w.metrics().Counter("worker.leases.acquired").Inc()
		w.runLease(ctx, resp.Lease)
	}
}

// runLease computes one leased cell under a heartbeat and posts the
// completion. Compute errors are reported to the coordinator (which owns
// the requeue/fail decision); transport errors on the completion post are
// retried briefly — an unreported cell is merely a lost lease, which the
// coordinator's expiry requeues.
func (w *Worker) runLease(ctx context.Context, l *Lease) {
	w.logger().Info("lease acquired", obs.F("worker", w.Name), obs.F("cell", l.Bench),
		obs.F("campaign", l.Campaign), obs.F("lease", l.ID), obs.F("attempt", l.Attempt),
		obs.F("trace", l.Trace), obs.F("span", l.Span))

	// Every exchange for this lease — heartbeats, the completion, the
	// release — carries the grant's trace context, so the coordinator's
	// log and the worker's compute join into one distributed trace.
	ctx = obs.WithTraceContext(ctx, obs.TraceContext{TraceID: l.Trace, SpanID: l.Span})

	// Heartbeat at a third of the TTL until the cell completes. A failed
	// heartbeat with StatusGone means the lease expired under us: cancel
	// the compute — a successor lease is (or will be) running the cell.
	hbCtx, cancelHB := context.WithCancel(ctx)
	cellCtx, cancelCell := context.WithCancel(ctx)
	defer cancelHB()
	defer cancelCell()
	ttl := time.Duration(l.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	go func() {
		// Each interval is re-jittered around ttl/3 so a worker fleet whose
		// heartbeats were synchronized by a common event (a coordinator
		// failover resetting every lease at once) de-correlates instead of
		// thundering against the freshly promoted coordinator.
		timer := time.NewTimer(jitterDur(ttl / 3))
		defer timer.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-timer.C:
				ok, err := w.Client.Heartbeat(hbCtx, l.ID)
				if err == nil && !ok {
					w.logger().Warn("lease expired under us; abandoning cell",
						obs.F("cell", l.Bench), obs.F("lease", l.ID))
					cancelCell()
					return
				}
				if err == nil {
					w.metrics().Counter("worker.heartbeats.sent").Inc()
				}
				timer.Reset(jitterDur(ttl / 3))
			}
		}
	}()

	started := time.Now()
	results, events, err := w.computeCell(cellCtx, l)
	finished := time.Now()
	cancelHB()
	w.metrics().Histogram("worker.cell.seconds").NonGolden().Observe(finished.Sub(started).Seconds())
	req := CompleteRequest{
		Worker: w.Name, Results: results, Events: events,
		// The lease id is single-use, so it keys this completion for
		// server-side dedup when the post is retried after a lost response.
		IdempotencyKey: fmt.Sprintf("lease-%d", l.ID),
		Trace:          l.Trace,
		Span:           l.Span,
		// The worker-side half of the attempt's span: compile + runs on
		// this worker's wall clock. The coordinator folds it into the
		// event log for the timeline and into artifact provenance.
		SpanRecord: &SpanRecord{
			Trace: l.Trace, Span: l.Span, Worker: w.Name,
			StartUnixNs: started.UnixNano(), EndUnixNs: finished.UnixNano(),
		},
	}
	if err != nil {
		if errors.Is(cellCtx.Err(), context.Canceled) && ctx.Err() == nil {
			// Abandoned after lease expiry: nothing to report, the
			// coordinator already requeued the cell.
			w.metrics().Counter("worker.cells.abandoned").NonGolden().Inc()
			return
		}
		if errors.Is(err, experiment.ErrStopped) || ctx.Err() != nil {
			// This worker is draining (or hard-cancelled), not the cell
			// failing: hand the lease back so the cell requeues immediately
			// — without burning an attempt — instead of idling until TTL
			// expiry.
			w.releaseLease(ctx, l)
			return
		}
		req.Results = nil
		req.Error = err.Error()
		w.metrics().Counter("worker.cells.failed").Inc()
	} else {
		w.metrics().Counter("worker.cells.completed").Inc()
	}
	if cerr := w.Client.Complete(ctx, l.ID, req); cerr != nil {
		w.logger().Warn("posting completion failed; lease will expire and requeue",
			obs.F("cell", l.Bench), obs.F("err", cerr.Error()))
	}
}

// releaseLease returns an in-flight lease during shutdown. On a hard cancel
// the worker's context is already dead, so the release runs best-effort on
// a short independent deadline; a failure costs nothing but requeue latency
// (the lease TTL still expires).
func (w *Worker) releaseLease(ctx context.Context, l *Lease) {
	w.logger().Info("draining; releasing lease", obs.F("cell", l.Bench), obs.F("lease", l.ID))
	w.metrics().Counter("worker.cells.abandoned").NonGolden().Inc()
	rctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	if _, err := w.Client.Release(rctx, l.ID, w.Name); err != nil {
		w.logger().Warn("lease release failed; lease will expire and requeue",
			obs.F("lease", l.ID), obs.F("err", err.Error()))
	}
}

// computeCell runs one cell through the ordinary collection path and
// returns its results plus the per-cell telemetry lines (obs wire format)
// delivered back with the completion.
func (w *Worker) computeCell(ctx context.Context, l *Lease) ([]experiment.RunResult, []json.RawMessage, error) {
	b, ok := BenchByName(l.Bench)
	if !ok {
		return nil, nil, fmt.Errorf("worker %s: unknown benchmark %q", w.Name, l.Bench)
	}
	cc, err := experiment.CompileBench(b, l.Config)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	ss, err := cc.Collect(ctx, l.Runs, l.SeedBase)
	if err != nil {
		return nil, nil, err
	}
	var line bytes.Buffer
	obs.NewLogger(&line, obs.LevelInfo).Info("cell computed",
		obs.F("worker", w.Name), obs.F("cell", l.Bench), obs.F("runs", l.Runs),
		obs.F("trace", l.Trace), obs.F("span", l.Span),
		obs.F("host_seconds_nongolden", time.Since(start).Seconds()))
	return ss.Results, []json.RawMessage{json.RawMessage(trimNL(line.Bytes()))}, nil
}

func trimNL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// jitterDur spreads a nominal delay uniformly over [d/2, 3d/2), so
// periodic timers across a fleet (heartbeats, idle polls, standby lease
// polls) cannot stay phase-locked after a synchronizing event.
func jitterDur(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps d or until ctx is done, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
