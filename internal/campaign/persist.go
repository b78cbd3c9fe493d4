package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// PersistSchema versions the coordinator's durable campaign documents.
// Documents with another schema are skipped at load with a warning — an
// older coordinator must never misread a newer document as state.
const PersistSchema = 1

// persistedCampaign is one campaign's durable record, written through the
// store's atomic state area ("campaigns/", beside blocks/) on every state
// transition. It captures everything the scheduler cannot rederive: the
// spec, each cell's scheduling state and attempt count, and the lease
// table — including retired (expired) leases, so late completions posted
// against a pre-crash lease still resolve after a restart. The event log
// and the assembled artifact are deliberately absent: events are bounded
// in-memory telemetry, and the artifact is rebuilt from the store.
type persistedCampaign struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	State  string `json:"state"`
	Err    string `json:"err,omitempty"`
	// Trace is the campaign's distributed trace ID. Journaling it is what
	// keeps one trace across a failover: the promoted coordinator restores
	// it instead of minting a new one. Optional (older documents predate
	// it); a restored campaign without one gets a fresh ID.
	Trace string `json:"trace,omitempty"`
	// Submitted anchors queue-wait derivation (optional, unix nanos).
	Submitted int64            `json:"submitted_unix_nano,omitempty"`
	Cells     []persistedCell  `json:"cells"`
	Leases    []persistedLease `json:"leases,omitempty"`
}

type persistedCell struct {
	Bench    string `json:"bench"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	FromHit  bool   `json:"from_hit,omitempty"`
	Lease    uint64 `json:"lease,omitempty"`
	Err      string `json:"err,omitempty"`
	// FirstLeased is when the cell's first lease was granted (unix nanos,
	// 0 = never leased); Prov is the completing attempt's measurement
	// pedigree. Both optional — observability state, carried so a
	// restarted coordinator can still serve provenance and queue waits.
	FirstLeased int64             `json:"first_leased_unix_nano,omitempty"`
	Prov        *bench.Provenance `json:"prov,omitempty"`
}

type persistedLease struct {
	ID       uint64 `json:"id"`
	Bench    string `json:"bench"`
	Worker   string `json:"worker"`
	Deadline int64  `json:"deadline_unix_nano"`
	Expired  bool   `json:"expired,omitempty"`
	// Attempt freezes which cell attempt this lease represents (optional;
	// 0 in older documents falls back to the cell's live attempt count).
	Attempt int `json:"attempt,omitempty"`
}

// record snapshots a campaign (and its leases) into its durable form.
// Must be called with c.mu held.
func (c *Coordinator) recordLocked(camp *campaignState) persistedCampaign {
	rec := persistedCampaign{
		Schema: PersistSchema,
		ID:     camp.id,
		Spec:   camp.spec,
		State:  camp.state,
		Err:    camp.err,
		Trace:  camp.trace,
	}
	if !camp.submitted.IsZero() {
		rec.Submitted = camp.submitted.UnixNano()
	}
	for _, cell := range camp.cells {
		pc := persistedCell{
			Bench: cell.Bench, State: cell.state, Attempts: cell.attempts,
			FromHit: cell.fromHit, Lease: cell.lease, Err: cell.err,
			Prov: cell.prov,
		}
		if !cell.firstGrant.IsZero() {
			pc.FirstLeased = cell.firstGrant.UnixNano()
		}
		rec.Cells = append(rec.Cells, pc)
	}
	for _, l := range c.leases {
		if l.campaign != camp {
			continue
		}
		rec.Leases = append(rec.Leases, persistedLease{
			ID: l.id, Bench: l.cell.Bench, Worker: l.worker,
			Deadline: l.deadline.UnixNano(), Expired: l.expired,
			Attempt: l.attempt,
		})
	}
	return rec
}

// persistLocked journals a campaign's current state through the store's
// atomic write layer. A failed write degrades durability, not scheduling:
// it is logged and counted, and the next transition retries. A fenced
// write — this coordinator's epoch superseded by a promoted standby — is
// refused outright: the successor replayed this journal at promotion, and
// a deposed writer must not clobber the successor's newer records. Must be
// called with c.mu held.
func (c *Coordinator) persistLocked(camp *campaignState) {
	if c.area == nil {
		return
	}
	if err := faultinject.Hit(context.Background(), faultinject.SiteCoordPersist); err != nil {
		c.metrics().Counter("campaign.persist.errors").NonGolden().Inc()
		c.logger().Error("journal write faulted", obs.F("campaign", camp.id), obs.F("err", err.Error()))
		return
	}
	if c.opts.Fence != nil {
		if err := c.opts.Fence.Check(); err != nil {
			c.metrics().Counter("campaign.persist.fenced").NonGolden().Inc()
			c.logger().Error("journal write refused: coordinator deposed by a newer fencing epoch",
				obs.F("campaign", camp.id), obs.F("err", err.Error()))
			return
		}
	}
	buf, err := json.Marshal(c.recordLocked(camp))
	if err == nil {
		err = c.area.Save(camp.id, append(buf, '\n'))
	}
	if err != nil {
		c.metrics().Counter("campaign.persist.errors").NonGolden().Inc()
		c.logger().Error("persisting campaign state failed; coordinator state is in-memory until the next transition",
			obs.F("campaign", camp.id), obs.F("err", err.Error()))
		return
	}
	c.metrics().Counter("campaign.persist.writes").NonGolden().Inc()
}

// restore rebuilds one campaign from its durable record. The cells are
// rederived from the spec (the derivation is deterministic and pinned by
// test) and married to the persisted scheduling state by benchmark name; a
// record whose cells no longer match the derivation — a suite change under
// a live store — fails the campaign rather than mis-scheduling it.
func (c *Coordinator) restore(rec persistedCampaign) (*campaignState, error) {
	if rec.Schema != PersistSchema {
		return nil, fmt.Errorf("campaign %s: persisted schema %d, this build reads %d", rec.ID, rec.Schema, PersistSchema)
	}
	camp := &campaignState{
		id: rec.ID, spec: rec.Spec, tenant: tenantOf(rec.Spec), state: rec.State, err: rec.Err,
		events: newEventRing(c.eventCap), trace: rec.Trace,
	}
	if camp.trace == "" {
		camp.trace = obs.NewTraceID() // pre-trace document
	}
	if rec.Submitted != 0 {
		camp.submitted = time.Unix(0, rec.Submitted)
	}
	byBench := map[string]persistedCell{}
	for _, pc := range rec.Cells {
		byBench[pc.Bench] = pc
	}
	for _, cs := range rec.Spec.Cells() {
		pc, ok := byBench[cs.Bench]
		if !ok {
			return nil, fmt.Errorf("campaign %s: persisted state has no cell %q", rec.ID, cs.Bench)
		}
		st := &cellState{
			CellSpec: cs, state: pc.State, attempts: pc.Attempts,
			fromHit: pc.FromHit, lease: pc.Lease, err: pc.Err,
			prov: pc.Prov,
		}
		if pc.FirstLeased != 0 {
			st.firstGrant = time.Unix(0, pc.FirstLeased)
		}
		switch st.state {
		case cellPending, cellLeased, cellDone, cellFailed:
		default:
			return nil, fmt.Errorf("campaign %s: cell %s has unknown state %q", rec.ID, cs.Bench, pc.State)
		}
		camp.cells = append(camp.cells, st)
	}
	if len(camp.cells) != len(rec.Cells) {
		return nil, fmt.Errorf("campaign %s: %d persisted cells for %d derived", rec.ID, len(rec.Cells), len(camp.cells))
	}
	cellByBench := map[string]*cellState{}
	for _, cell := range camp.cells {
		cellByBench[cell.Bench] = cell
	}
	for _, pl := range rec.Leases {
		cell, ok := cellByBench[pl.Bench]
		if !ok {
			return nil, fmt.Errorf("campaign %s: lease %d names unknown cell %q", rec.ID, pl.ID, pl.Bench)
		}
		attempt := pl.Attempt
		if attempt == 0 {
			attempt = cell.attempts
		}
		c.leases[pl.ID] = &lease{
			id: pl.ID, campaign: camp, cell: cell, worker: pl.Worker,
			deadline: time.Unix(0, pl.Deadline), expired: pl.Expired,
			attempt: attempt,
		}
		if pl.ID > c.nextLease {
			c.nextLease = pl.ID
		}
	}
	return camp, nil
}

// loadCampaigns restores every persisted campaign at coordinator start:
// open campaigns resume scheduling exactly where the previous process
// stopped, stale leases re-expire through the ordinary lazy-expiry path,
// and cells whose store block landed before the crash (but whose state
// transition did not) are recovered as done — the store is the source of
// truth for completed work, so a crash can never double-count or lose a
// cell. Called from NewCoordinator before the coordinator is shared, so no
// locking is needed.
func (c *Coordinator) loadCampaigns() error {
	names, err := c.area.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		buf, err := c.area.Load(name)
		if err != nil || buf == nil {
			c.metrics().Counter("campaign.docs.skipped").NonGolden().Inc()
			c.logger().Warn("unreadable campaign document skipped", obs.F("campaign", name))
			continue
		}
		var rec persistedCampaign
		if err := json.Unmarshal(buf, &rec); err != nil {
			c.metrics().Counter("campaign.docs.skipped").NonGolden().Inc()
			c.logger().Warn("corrupt campaign document skipped",
				obs.F("campaign", name), obs.F("err", err.Error()))
			continue
		}
		camp, err := c.restore(rec)
		if err != nil {
			c.metrics().Counter("campaign.docs.skipped").NonGolden().Inc()
			c.logger().Warn("campaign document failed to restore",
				obs.F("campaign", name), obs.F("err", err.Error()))
			continue
		}
		recovered := 0
		if camp.state == StateRunning {
			for _, cell := range camp.cells {
				if cell.state == cellDone || cell.state == cellFailed {
					continue
				}
				if results := c.opts.Store.Get(cell.StoreKey, cell.Runs, cell.SeedBase); results != nil {
					cell.state = cellDone
					cell.err = ""
					recovered++
				}
			}
		}
		c.campaigns = append(c.campaigns, camp)
		c.byID[camp.id] = camp
		if n := campNumber(camp.id); n > c.nextCamp {
			c.nextCamp = n
		}
		c.eventLocked(camp, "campaign restored from durable state",
			obs.F("state", camp.state), obs.F("cells", len(camp.cells)),
			obs.F("recovered_from_store", recovered))
		c.refreshLocked(camp)
		c.persistLocked(camp)
		c.metrics().Counter("campaign.restored").NonGolden().Inc()
	}
	// Campaign files are listed lexically; ids are zero-padded so that
	// order matches submission order until the counter outgrows the
	// padding — re-sort numerically so it holds beyond that too.
	sortCampaigns(c.campaigns)
	return nil
}

// campNumber extracts the numeric part of a campaign id ("c0042" -> 42);
// foreign ids sort first.
func campNumber(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "c"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func sortCampaigns(camps []*campaignState) {
	for i := 1; i < len(camps); i++ {
		for j := i; j > 0 && campNumber(camps[j-1].id) > campNumber(camps[j].id); j-- {
			camps[j-1], camps[j] = camps[j], camps[j-1]
		}
	}
}
