package campaign

import (
	"bytes"
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

// PersistSchema versions the coordinator's campaign snapshot documents.
// A schema-2 snapshot names the last journal record it reflects, and
// restore replays the journal's later records on top of it; a schema-1
// document (written before the journal carried records) restores as
// written, with nothing replayed. Documents with another schema are skipped
// at load with a warning — an older coordinator must never misread a newer
// document as state.
const PersistSchema = 2

// persistedCampaign is one campaign's snapshot document, written through
// the store's atomic state area ("campaigns/<id>.json", beside blocks/).
// The campaign's source of truth is its journal beside it,
// "<id>.events.jsonl": every scheduling transition appends its event lines
// there in one write, and the transition's last coordinator line carries a
// journalRecord. The snapshot is written only at submit, at the terminal
// state, after a restore, and at the first transition after a failed
// journal or snapshot write. It captures everything the scheduler cannot
// rederive — the spec, each cell's scheduling state and attempt count, and
// the lease table, including retired (expired) leases, so late completions
// posted against a pre-crash lease still resolve after a restart. The
// assembled artifact is deliberately absent: it is rebuilt from the store.
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
	// Seq is the last journal record the snapshot reflects (schema 2);
	// NextLease is the coordinator's lease counter when it was taken, so a
	// restart never hands out a lease id a completed lease already used.
	Seq       uint64 `json:"seq,omitempty"`
	NextLease uint64 `json:"next_lease,omitempty"`
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

// journalRecord is the replayable state a coordinator journal line carries
// in its "rec" field: the campaign's state after one scheduling transition,
// and the post-transition state of the one cell and the one lease the
// transition touched. Resolved, instead of Lease, names a lease the
// transition removed from the lease table (a completion). Seq numbers a
// campaign's records from 1.
type journalRecord struct {
	Seq      uint64          `json:"seq"`
	State    string          `json:"state"`
	Err      string          `json:"err,omitempty"`
	Cell     *persistedCell  `json:"cell,omitempty"`
	Lease    *persistedLease `json:"lease,omitempty"`
	Resolved uint64          `json:"resolved,omitempty"`
}

// lineRecord returns the record a journal line carries, or nil for a line
// that is not one: worker telemetry, a torn or foreign line.
func lineRecord(line []byte) *journalRecord {
	var l struct {
		Rec *journalRecord `json:"rec"`
	}
	if json.Unmarshal(line, &l) != nil {
		return nil
	}
	return l.Rec
}

// hasRecordField reports whether a line carries the "rec" field with any
// value, its key matched the way lineRecord's decoding matches it. Every
// line lineRecord reads a record from has one, so Complete, which rejects
// worker-forwarded lines that do, keeps workers from forging state.
func hasRecordField(line []byte) bool {
	var l struct {
		Rec json.RawMessage `json:"rec"`
	}
	return json.Unmarshal(line, &l) == nil && l.Rec != nil
}

func cellRecord(cell *cellState) persistedCell {
	pc := persistedCell{
		Bench: cell.Bench, State: cell.state, Attempts: cell.attempts,
		FromHit: cell.fromHit, Lease: cell.lease, Err: cell.err,
		Prov: cell.prov,
	}
	if !cell.firstGrant.IsZero() {
		pc.FirstLeased = cell.firstGrant.UnixNano()
	}
	return pc
}

func leaseRecord(l *lease) persistedLease {
	return persistedLease{
		ID: l.id, Bench: l.cell.Bench, Worker: l.worker,
		Deadline: l.deadline.UnixNano(), Expired: l.expired,
		Attempt: l.attempt,
	}
}

// recordLocked snapshots a campaign (and its leases) into its durable form.
// Must be called with c.mu held.
func (c *Coordinator) recordLocked(camp *campaignState) persistedCampaign {
	rec := persistedCampaign{
		Schema:    PersistSchema,
		ID:        camp.id,
		Spec:      camp.spec,
		State:     camp.state,
		Err:       camp.err,
		Trace:     camp.trace,
		Seq:       camp.seq,
		NextLease: c.nextLease,
	}
	if !camp.submitted.IsZero() {
		rec.Submitted = camp.submitted.UnixNano()
	}
	for _, cell := range camp.cells {
		rec.Cells = append(rec.Cells, cellRecord(cell))
	}
	for _, l := range c.leases {
		if l.campaign == camp {
			rec.Leases = append(rec.Leases, leaseRecord(l))
		}
	}
	return rec
}

// persistLocked writes the campaign's snapshot document through the
// store's atomic write layer: at submit, at the terminal state, after a
// restore, and at the first transition after a failed journal or snapshot
// write (snapshotDue). A failed write degrades durability, not scheduling:
// it is logged and counted, and the next transition retries. A fenced
// write — this coordinator's epoch superseded by a promoted standby — is
// refused outright: the successor replayed this journal at promotion, and
// a deposed writer must not clobber the successor's newer records. Must be
// called with c.mu held.
func (c *Coordinator) persistLocked(camp *campaignState) {
	if c.area == nil {
		return
	}
	camp.snapshotDue = true // until the write below lands
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
	camp.snapshotDue = false
	c.metrics().Counter("campaign.persist.writes").NonGolden().Inc()
}

// commitLocked ends one scheduling transition on camp, which touched cell
// and lease l: it numbers the transition's record and writes the queued
// event lines with the record attached (flushLocked). A snapshot follows
// when one is due — the transition ended the campaign, or an earlier
// transition's write failed; a write failing here makes the next
// transition write one. Must be called with c.mu held.
func (c *Coordinator) commitLocked(camp *campaignState, cell *cellState, l *lease) {
	due := camp.snapshotDue
	camp.seq++
	pc := cellRecord(cell)
	rec := &journalRecord{Seq: camp.seq, State: camp.state, Err: camp.err, Cell: &pc}
	if c.leases[l.id] == l {
		pl := leaseRecord(l)
		rec.Lease = &pl
	} else {
		rec.Resolved = l.id
	}
	c.flushLocked(camp, rec)
	if due {
		c.persistLocked(camp)
	}
}

// flushLocked renders the lines queued by eventLocked and Complete's
// worker lines, attaches rec (if any) to the last coordinator line, pushes
// every line into the campaign's ring, and appends them all to the journal
// in one write under one fence check. A failed append is counted and makes
// the next transition write a snapshot. Must be called with c.mu held.
func (c *Coordinator) flushLocked(camp *campaignState, rec *journalRecord) {
	last := -1
	for i, ev := range camp.batch {
		if ev.raw == nil {
			last = i
		}
	}
	var out lineBuffer
	lg := obs.NewLogger(&out, obs.LevelInfo).WallClock().With(obs.F("campaign", camp.id))
	for i, ev := range camp.batch {
		switch {
		case ev.raw != nil:
			out.Write(ev.raw)
		case i == last && rec != nil:
			lg.Info(ev.msg, append(ev.fields[:len(ev.fields):len(ev.fields)], obs.F("rec", rec))...)
		default:
			lg.Info(ev.msg, ev.fields...)
		}
	}
	clear(camp.batch)
	camp.batch = camp.batch[:0]
	if len(out.ends) == 0 {
		return
	}
	lines, start := out.buf, 0
	for _, end := range out.ends {
		camp.events.append(lines[start:end:end])
		start = end
	}
	c.cond.Broadcast()
	if c.area == nil {
		return
	}
	err := faultinject.Hit(context.Background(), faultinject.SiteCoordPersist)
	if err == nil && c.opts.Fence != nil {
		if err = c.opts.Fence.Check(); err != nil {
			c.metrics().Counter("campaign.persist.fenced").NonGolden().Inc()
		}
	}
	if err == nil {
		err = c.area.AppendLog(camp.id+".events", lines)
	}
	if err != nil {
		camp.snapshotDue = true
		c.metrics().Counter("campaign.events.unjournaled").NonGolden().Add(uint64(len(out.ends)))
		c.logger().Error("journal append failed; the next transition writes a snapshot",
			obs.F("campaign", camp.id), obs.F("err", err.Error()))
		return
	}
	c.metrics().Counter("campaign.journal.appends").NonGolden().Inc()
}

// cellNamed finds a campaign's cell by benchmark name.
func (camp *campaignState) cellNamed(bench string) *cellState {
	for _, cell := range camp.cells {
		if cell.Bench == bench {
			return cell
		}
	}
	return nil
}

// applyCell sets a cell's scheduling state from its durable form.
func applyCell(campID string, st *cellState, pc persistedCell) error {
	switch pc.State {
	case cellPending, cellLeased, cellDone, cellFailed:
	default:
		return fmt.Errorf("campaign %s: cell %s has unknown state %q", campID, pc.Bench, pc.State)
	}
	st.state, st.attempts, st.fromHit = pc.State, pc.Attempts, pc.FromHit
	st.lease, st.err, st.prov = pc.Lease, pc.Err, pc.Prov
	st.firstGrant = time.Time{}
	if pc.FirstLeased != 0 {
		st.firstGrant = time.Unix(0, pc.FirstLeased)
	}
	return nil
}

// restoreLease puts a durable lease back into the lease table.
func (c *Coordinator) restoreLease(camp *campaignState, pl persistedLease) error {
	cell := camp.cellNamed(pl.Bench)
	if cell == nil {
		return fmt.Errorf("campaign %s: lease %d names unknown cell %q", camp.id, pl.ID, pl.Bench)
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
	c.nextLease = max(c.nextLease, pl.ID)
	return nil
}

// restore rebuilds one campaign from its snapshot document. The cells are
// rederived from the spec (the derivation is deterministic and pinned by
// test) and married to the persisted scheduling state by benchmark name; a
// record whose cells no longer match the derivation — a suite change under
// a live store — fails the campaign rather than mis-scheduling it.
func (c *Coordinator) restore(rec persistedCampaign) (*campaignState, error) {
	if rec.Schema != 1 && rec.Schema != PersistSchema {
		return nil, fmt.Errorf("campaign %s: persisted schema %d, this build reads 1 and %d", rec.ID, rec.Schema, PersistSchema)
	}
	camp := &campaignState{
		id: rec.ID, spec: rec.Spec, tenant: tenantOf(rec.Spec), state: rec.State, err: rec.Err,
		events: newEventRing(c.eventCap), trace: rec.Trace, seq: rec.Seq,
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
		st := &cellState{CellSpec: cs}
		if err := applyCell(rec.ID, st, pc); err != nil {
			return nil, err
		}
		camp.cells = append(camp.cells, st)
	}
	if len(camp.cells) != len(rec.Cells) {
		return nil, fmt.Errorf("campaign %s: %d persisted cells for %d derived", rec.ID, len(rec.Cells), len(camp.cells))
	}
	c.nextLease = max(c.nextLease, rec.NextLease)
	for _, pl := range rec.Leases {
		if err := c.restoreLease(camp, pl); err != nil {
			return nil, err
		}
	}
	return camp, nil
}

// replayJournal applies the journal records written after the snapshot, in
// log order. Lines that are not records are skipped, LoadLog has already
// dropped a torn tail, and RepairLog cuts that tail off the file so this
// coordinator's first append starts on a line boundary.
func (c *Coordinator) replayJournal(camp *campaignState) error {
	log, err := c.area.LoadLog(camp.id + ".events")
	if err != nil {
		return err
	}
	for len(log) > 0 {
		var line []byte
		line, log, _ = bytes.Cut(log, []byte{'\n'})
		r := lineRecord(line)
		if r == nil || r.Seq <= camp.seq {
			continue
		}
		switch r.State {
		case StateRunning, StateDone, StateFailed:
		default:
			return fmt.Errorf("campaign %s: record %d has unknown state %q", camp.id, r.Seq, r.State)
		}
		camp.state, camp.err, camp.seq = r.State, r.Err, r.Seq
		if r.Cell != nil {
			cell := camp.cellNamed(r.Cell.Bench)
			if cell == nil {
				return fmt.Errorf("campaign %s: record %d names unknown cell %q", camp.id, r.Seq, r.Cell.Bench)
			}
			if err := applyCell(camp.id, cell, *r.Cell); err != nil {
				return err
			}
		}
		if r.Lease != nil {
			if err := c.restoreLease(camp, *r.Lease); err != nil {
				return err
			}
		}
		if l := c.leases[r.Resolved]; l != nil && l.campaign == camp {
			delete(c.leases, r.Resolved)
		}
		c.nextLease = max(c.nextLease, r.Resolved)
	}
	if err := c.area.RepairLog(camp.id + ".events"); err != nil {
		c.logger().Warn("journal tail left torn", obs.F("campaign", camp.id), obs.F("err", err.Error()))
	}
	return nil
}

// loadCampaigns restores every persisted campaign at coordinator start:
// each campaign's snapshot, then the journal records written after it, then
// a re-probe of the store. Open campaigns resume scheduling exactly where
// the previous process stopped, stale leases re-expire through the ordinary
// lazy-expiry path, and cells whose store block landed before the crash
// (but whose state transition did not) are recovered as done — the store
// is the source of truth for completed work, so a crash can never
// double-count or lose a cell. Called from NewCoordinator before the
// coordinator is shared, so no locking is needed.
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
		if err == nil && rec.Schema == PersistSchema {
			err = c.replayJournal(camp)
		}
		if err != nil {
			for id, l := range c.leases {
				if l.campaign == camp {
					delete(c.leases, id)
				}
			}
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
				if results := c.opts.Store.Get(cell.Key, cell.Runs, cell.SeedBase); results != nil {
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
		c.flushLocked(camp, nil)
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
