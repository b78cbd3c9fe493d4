// Package faultinject is a deterministic fault-injection harness for the
// experiment engine. Tests (and CI) activate a plan of faults — panic,
// transient error, delay, or hang — that fire at the Nth hit of a named
// call site, then drive a sweep and assert that every recovery path
// (panic isolation, watchdog timeout, transient retry) actually runs.
//
// The hook is a plain runtime check, not a build tag: instrumented sites
// call Hit, which is a single atomic load when no plan is active, so the
// production binary pays nothing measurable and CI needs no special build.
// Given the same plan and a sequential pool, the fired faults are fully
// deterministic; under a parallel pool the Nth hit is whichever worker
// gets there first, which is still bounded and race-free.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Instrumented call sites in the experiment engine.
const (
	// SitePoolWorker is hit once per pool work item, before the item runs.
	SitePoolWorker = "pool.worker"
	// SiteCellStart is hit once per compile/run cell, before collection.
	SiteCellStart = "cell.start"
	// SiteCompileCache is hit inside the compile cache, before compiling.
	SiteCompileCache = "compile.cache"
	// SiteCellStore is hit before a computed cell is written back to the
	// cell store (experiment.WithCellStore).
	SiteCellStore = "cellstore.store"
)

// Instrumented protocol sites in the campaign farm. Client-side net.* sites
// are consulted (via Protocol) once per request the farm client sends;
// coordinator-side coord.* sites are hit at the top of the matching HTTP
// handler, so an armed fault there surfaces as a server 5xx.
const (
	// SiteNetSubmit is the client's campaign submission request.
	SiteNetSubmit = "net.submit"
	// SiteNetAcquire is the client's lease acquisition request.
	SiteNetAcquire = "net.acquire"
	// SiteNetHeartbeat is the client's lease heartbeat request.
	SiteNetHeartbeat = "net.heartbeat"
	// SiteNetComplete is the client's cell completion post.
	SiteNetComplete = "net.complete"
	// SiteNetRelease is the client's drain-time lease release.
	SiteNetRelease = "net.release"
	// SiteNetStatus is the client's campaign status request.
	SiteNetStatus = "net.status"
	// SiteCoordAcquire is the coordinator's lease-grant handler.
	SiteCoordAcquire = "coord.acquire"
	// SiteCoordComplete is the coordinator's completion handler.
	SiteCoordComplete = "coord.complete"
)

// Instrumented coordination-lease sites in the store. These sit inside the
// coordinator-election protocol, so chaos tests can depose an active
// coordinator (lease.steal hooks before a fence check), delay a renewal
// past the TTL (lease.renew + delay simulates a GC pause or clock skew),
// or fail an acquisition attempt; coord.persist fires before each fenced
// journal write, the deposed-write rejection point.
const (
	// SiteLeaseAcquire is hit at the top of Coordination.TryAcquire.
	SiteLeaseAcquire = "lease.acquire"
	// SiteLeaseRenew is hit at the top of LeaseHandle.Renew, before the
	// fence re-check.
	SiteLeaseRenew = "lease.renew"
	// SiteLeaseSteal is hit inside LeaseHandle.Check, before the epoch
	// comparison — a hook here can claim a newer epoch out from under the
	// holder at the worst possible moment.
	SiteLeaseSteal = "lease.steal"
	// SiteCoordPersist is hit before each fenced coordinator journal write.
	SiteCoordPersist = "coord.persist"
)

// Kind selects what a fault does when it fires.
type Kind int

const (
	// KindError returns an *Error (Transient() == true) from Hit.
	KindError Kind = iota + 1
	// KindPanic panics with a recognizable message.
	KindPanic
	// KindDelay sleeps for Fault.Delay (respecting ctx), then proceeds.
	KindDelay
	// KindHang blocks until the site's context is cancelled and returns
	// the context error — a runaway cell that only a watchdog can stop.
	KindHang
	// KindHook calls Fault.Hook and proceeds; used by tests to trigger
	// external events (e.g. a drain) at a deterministic point.
	KindHook
	// KindDrop, at a protocol site, loses the request or its response: the
	// caller sees a transport error and never learns whether the server
	// processed the exchange. At a non-protocol site it behaves as
	// KindError.
	KindDrop
	// KindDup, at a protocol site, sends the request twice — the retry the
	// network performed on the caller's behalf. Exercises idempotency:
	// duplicate completions must be deduplicated, not attempt-burned.
	KindDup
	// Kind5xx, at a protocol site, short-circuits the exchange with a 503 —
	// an overloaded proxy or crashing server. Clients must treat it as
	// retryable.
	Kind5xx
	// KindTorn, at a protocol site, truncates the response body mid-stream
	// (a torn TCP connection): the request was processed but the caller
	// cannot decode the answer.
	KindTorn
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindHang:
		return "hang"
	case KindHook:
		return "hook"
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case Kind5xx:
		return "5xx"
	case KindTorn:
		return "torn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a kind name (the String form) back to its Kind; used
// by ParseFaults.
func ParseKind(s string) (Kind, error) {
	for k := KindError; k <= KindTorn; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown fault kind %q", s)
}

// Fault is one rule in a plan.
type Fault struct {
	// Site names the instrumented call site the fault arms.
	Site string
	// Nth is the 1-based hit ordinal the fault fires on. 0 derives a
	// small deterministic ordinal from the plan seed and the site name.
	Nth uint64
	// Kind selects the failure mode.
	Kind Kind
	// Delay is the sleep for KindDelay.
	Delay time.Duration
	// Hook is called for KindHook.
	Hook func()
	// Repeat fires the fault on every hit >= Nth instead of exactly once.
	Repeat bool
}

// Error is the injected transient failure returned by KindError faults.
// It satisfies the Transient predicate, so the engine's retry policy
// treats it as worth retrying.
type Error struct {
	Site string
	Hit  uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected transient error at %s (hit %d)", e.Site, e.Hit)
}

// Transient marks the error as retryable.
func (e *Error) Transient() bool { return true }

// Transient reports whether any error in err's chain declares itself
// transient (worth retrying) via a `Transient() bool` method.
func Transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// plan is one activated fault set with its per-site hit counters.
type plan struct {
	faults []Fault
	mu     sync.Mutex
	hits   map[string]uint64
	fired  []bool
}

var active atomic.Pointer[plan]

// Activate installs a fault plan and returns its deactivation function.
// Faults with Nth == 0 get a deterministic ordinal in [1, 8] derived from
// seed and the site name, so seeded campaigns vary where they strike
// without losing reproducibility. Plans do not stack: activating a new
// plan replaces the previous one; the returned func removes only the plan
// it belongs to (deferred deactivation cannot clobber a newer plan).
func Activate(seed uint64, faults ...Fault) (deactivate func()) {
	p := &plan{
		faults: append([]Fault(nil), faults...),
		hits:   make(map[string]uint64),
		fired:  make([]bool, len(faults)),
	}
	for i := range p.faults {
		if p.faults[i].Nth == 0 {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%d", seed, p.faults[i].Site, i)
			p.faults[i].Nth = 1 + h.Sum64()%8
		}
	}
	active.Store(p)
	return func() { active.CompareAndSwap(p, nil) }
}

// Enabled reports whether a plan is active. Sites with setup cost can use
// it to skip work; Hit already checks it.
func Enabled() bool { return active.Load() != nil }

// Hit is the runtime hook instrumented sites call. With no active plan it
// is a single atomic load. With a plan, it advances the site's hit
// counter and fires the matching fault, if any: returning an injected
// error, panicking, sleeping, hanging until ctx is done, or invoking a
// hook. ctx bounds KindDelay and KindHang; sites without a meaningful
// context should pass context.Background() (an armed KindHang would then
// block forever, which such sites document).
func Hit(ctx context.Context, site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(ctx, site)
}

// match advances the site's hit counter and returns the fault that fires on
// this hit, if any, plus the hit ordinal.
func (p *plan) match(site string) (*Fault, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits[site]++
	h := p.hits[site]
	for i := range p.faults {
		r := &p.faults[i]
		if r.Site != site {
			continue
		}
		if (r.Repeat && h >= r.Nth) || (!r.Repeat && h == r.Nth && !p.fired[i]) {
			p.fired[i] = true
			return r, h
		}
	}
	return nil, h
}

func (p *plan) hit(ctx context.Context, site string) error {
	f, h := p.match(site)
	if f == nil {
		return nil
	}
	switch f.Kind {
	case KindError, KindDrop, KindDup, Kind5xx, KindTorn:
		// The protocol kinds only shape traffic at protocol sites
		// (Protocol); at a plain site they degrade to a transient error.
		return &Error{Site: site, Hit: h}
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s (hit %d)", site, h))
	case KindDelay:
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	case KindHang:
		<-ctx.Done()
		return ctx.Err()
	case KindHook:
		if f.Hook != nil {
			f.Hook()
		}
		return nil
	}
	return fmt.Errorf("faultinject: unknown fault kind %v at %s", f.Kind, site)
}

// Hits returns the active plan's hit count for a site (0 when no plan is
// active) — test telemetry, not control flow.
func Hits(site string) uint64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[site]
}

// NetFault is the traffic-shaping decision Protocol returns for one
// request at a protocol site. The zero value means "no fault: proceed".
type NetFault struct {
	// Drop loses the exchange: the caller must fail with a transport
	// error without learning whether the server processed the request.
	Drop bool
	// Duplicate sends the request twice (first response discarded).
	Duplicate bool
	// Status, when non-zero, short-circuits the exchange with this HTTP
	// status (a synthetic 5xx) without reaching the server.
	Status int
	// Torn truncates the response body mid-stream after a real exchange.
	Torn bool
}

// Protocol is the runtime hook for network/protocol sites (the farm
// client's requests, the coordinator's handlers). With no active plan it is
// a single atomic load and returns the zero decision. An armed KindDelay
// sleeps here (bounded by ctx); KindPanic and KindHang behave as at plain
// sites; the protocol kinds map onto the returned decision.
func Protocol(ctx context.Context, site string) NetFault {
	p := active.Load()
	if p == nil {
		return NetFault{}
	}
	f, h := p.match(site)
	if f == nil {
		return NetFault{}
	}
	switch f.Kind {
	case KindDrop, KindError:
		return NetFault{Drop: true}
	case KindDup:
		return NetFault{Duplicate: true}
	case Kind5xx:
		return NetFault{Status: 503}
	case KindTorn:
		return NetFault{Torn: true}
	case KindDelay:
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return NetFault{Drop: true}
		}
		return NetFault{}
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s (hit %d)", site, h))
	case KindHang:
		<-ctx.Done()
		return NetFault{Drop: true}
	case KindHook:
		if f.Hook != nil {
			f.Hook()
		}
		return NetFault{}
	}
	return NetFault{}
}

// ParseFaults parses a textual fault plan — the SZ_FAULTS wire format used
// to arm chaos runs of the farm CLIs without recompiling. Entries are
// semicolon-separated; each is
//
//	site:kind[:nth[:repeat]]
//
// where kind is one of error, panic, delay=<duration>, hang, hook (no-op
// from text), drop, dup, 5xx, torn; nth is the 1-based hit ordinal (0 or
// absent derives one from the plan seed); and the literal "repeat" fires
// the fault on every hit >= nth. Example:
//
//	net.complete:dup:1;net.acquire:drop:2:repeat;coord.complete:5xx:3
func ParseFaults(s string) ([]Fault, error) {
	var out []Fault
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("faultinject: entry %q: want site:kind[:nth[:repeat]]", entry)
		}
		f := Fault{Site: parts[0]}
		kind := parts[1]
		if d, ok := strings.CutPrefix(kind, "delay="); ok {
			dur, err := time.ParseDuration(d)
			if err != nil {
				return nil, fmt.Errorf("faultinject: entry %q: bad delay: %v", entry, err)
			}
			f.Kind, f.Delay = KindDelay, dur
		} else {
			k, err := ParseKind(kind)
			if err != nil {
				return nil, fmt.Errorf("faultinject: entry %q: %v", entry, err)
			}
			if k == KindDelay {
				return nil, fmt.Errorf("faultinject: entry %q: delay needs a duration (delay=200ms)", entry)
			}
			f.Kind = k
		}
		if len(parts) >= 3 && parts[2] != "" {
			n, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: entry %q: bad nth: %v", entry, err)
			}
			f.Nth = n
		}
		if len(parts) >= 4 {
			if parts[3] != "repeat" {
				return nil, fmt.Errorf("faultinject: entry %q: trailing field must be \"repeat\"", entry)
			}
			f.Repeat = true
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault plan %q", s)
	}
	return out, nil
}
