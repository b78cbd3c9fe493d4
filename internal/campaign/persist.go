package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/store"
)

// A campaign's only durable record is its journal, "<id>.events.jsonl" in
// the store's "campaigns" state area beside blocks/. Every scheduling
// transition appends its event lines there in one write, and one
// coordinator line of the transition carries a journalRecord in its "rec"
// field. The first record, on the "campaign submitted" line, also carries
// the submission (submitRecord); a restart rebuilds the campaign from it
// and applies every later record in log order. Together the records hold
// everything the scheduler cannot rederive — the spec, each cell's
// scheduling state and attempt count, and the lease table, including
// retired (expired) leases, so late completions posted against a
// pre-crash lease still resolve after a restart. The assembled artifact is
// deliberately absent: it is rebuilt from the store.

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
	// Attempt freezes which cell attempt this lease represents.
	Attempt int `json:"attempt,omitempty"`
}

// journalRecord is the replayable state a coordinator journal line carries
// in its "rec" field: the campaign's state after one scheduling transition,
// and the post-transition state of the one cell and the one lease the
// transition touched. Resolved, instead of Lease, names a lease the
// transition removed from the lease table (a completion). Submit is set on
// the campaign's first record only. Seq numbers a campaign's records from 1.
type journalRecord struct {
	Seq      uint64          `json:"seq"`
	State    string          `json:"state"`
	Err      string          `json:"err,omitempty"`
	Submit   *submitRecord   `json:"submit,omitempty"`
	Cell     *persistedCell  `json:"cell,omitempty"`
	Lease    *persistedLease `json:"lease,omitempty"`
	Resolved uint64          `json:"resolved,omitempty"`
}

// submitRecord is the submission a campaign is rebuilt from: the spec its
// cells derive from, its trace ID (journaled so one trace spans a
// failover), the submit time that anchors queue waits, and the benchmarks
// the store served at submit.
type submitRecord struct {
	Spec      Spec     `json:"spec"`
	Trace     string   `json:"trace"`
	Submitted int64    `json:"submitted_unix_nano"`
	FromHit   []string `json:"from_hit,omitempty"`
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

// commitLocked ends one scheduling transition on camp, which touched cell
// and lease l (nil when it touched none): it numbers the transition's
// record, attaches it to the transition's last coordinator line and
// appends the queued lines (flushLocked), returning flushLocked's error.
// Must be called with c.mu held.
func (c *Coordinator) commitLocked(camp *campaignState, cell *cellState, l *lease) error {
	camp.seq++
	pc := cellRecord(cell)
	rec := &journalRecord{Seq: camp.seq, State: camp.state, Err: camp.err, Cell: &pc}
	switch {
	case l == nil:
	case c.leases[l.id] == l:
		pl := leaseRecord(l)
		rec.Lease = &pl
		l.journaled = l.deadline
	default:
		rec.Resolved = l.id
	}
	for i := len(camp.batch) - 1; i >= 0; i-- {
		if camp.batch[i].raw == nil {
			camp.batch[i].rec = rec
			break
		}
	}
	return c.flushLocked(camp)
}

// flushLocked renders the lines queued by eventLocked and Complete's
// worker lines, each coordinator line with its record if it carries one,
// and appends them to the journal in one write under one fence check. An
// append that fails keeps its lines: the next flush cuts any torn
// fragment off the log (RepairLog) and writes them ahead of its own, and
// replay skips the records a partial write had already landed. A fenced
// append is refused and its lines are dropped: the successor replayed
// this journal at promotion, and a deposed writer must not add to it. The
// refusal's *store.FencedError is the one error returned, so a caller can
// withhold what the dropped lines record. Must be called with c.mu held.
func (c *Coordinator) flushLocked(camp *campaignState) error {
	var out bytes.Buffer
	out.Write(camp.unwritten)
	kept := len(camp.unwritten)
	camp.unwritten = nil
	lg := obs.NewLogger(&out, obs.LevelInfo).WallClock().With(obs.F("campaign", camp.id))
	for _, ev := range camp.batch {
		switch {
		case ev.raw != nil:
			out.Write(ev.raw)
		case ev.rec != nil:
			lg.Info(ev.msg, append(ev.fields[:len(ev.fields):len(ev.fields)], obs.F("rec", ev.rec))...)
		default:
			lg.Info(ev.msg, ev.fields...)
		}
	}
	clear(camp.batch)
	camp.batch = camp.batch[:0]
	if out.Len() == 0 {
		return nil
	}
	err := faultinject.Hit(context.Background(), faultinject.SiteCoordPersist)
	if err == nil {
		err = c.opts.Fence.Check()
	}
	if err == nil && camp.repair {
		err = c.area.RepairLog(camp.id + ".events")
	}
	if err == nil {
		err = c.area.AppendLog(camp.id+".events", out.Bytes())
	}
	if err != nil {
		c.metrics().Counter("campaign.events.unjournaled").NonGolden().Add(uint64(bytes.Count(out.Bytes()[kept:], []byte{'\n'})))
		var fenced *store.FencedError
		if errors.As(err, &fenced) {
			c.metrics().Counter("campaign.persist.fenced").NonGolden().Inc()
			c.logger().Error("journal append refused: coordinator deposed by a newer fencing epoch",
				obs.F("campaign", camp.id), obs.F("err", err.Error()))
			return err
		}
		camp.unwritten, camp.repair = out.Bytes(), true
		c.logger().Error("journal append failed; the next transition retries it",
			obs.F("campaign", camp.id), obs.F("err", err.Error()))
		return nil
	}
	camp.repair = false
	c.metrics().Counter("campaign.journal.appends").NonGolden().Inc()
	return nil
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
	deadline := time.Unix(0, pl.Deadline)
	c.leases[pl.ID] = &lease{
		id: pl.ID, campaign: camp, cell: cell, worker: pl.Worker,
		deadline: deadline, journaled: deadline, expired: pl.Expired,
		attempt: pl.Attempt,
	}
	return nil
}

// campaignFromSubmit builds a campaign as Submit built it, from its submit
// record: the cells are rederived from the spec (the derivation is
// deterministic and pinned by test) and the ones the store served are
// done.
func campaignFromSubmit(id string, r *journalRecord) (*campaignState, error) {
	sub := r.Submit
	if sub == nil {
		return nil, fmt.Errorf("campaign %s: the journal's first record is not its submit record "+
			"(an older build wrote the journal, or its first line is damaged)", id)
	}
	camp := &campaignState{
		id: id, spec: sub.Spec, tenant: tenantOf(sub.Spec), trace: sub.Trace,
		submitted: time.Unix(0, sub.Submitted), repair: true,
	}
	for _, cs := range sub.Spec.Cells() {
		camp.cells = append(camp.cells, &cellState{CellSpec: cs, state: cellPending})
	}
	for _, name := range sub.FromHit {
		cell := camp.cellNamed(name)
		if cell == nil {
			return nil, fmt.Errorf("campaign %s: submit record names unknown cell %q", id, name)
		}
		cell.state, cell.fromHit = cellDone, true
	}
	return camp, nil
}

// apply sets camp to one record's state: the campaign's, the cell's, and
// the lease table's.
func (c *Coordinator) apply(camp *campaignState, r *journalRecord) error {
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
	return nil
}

// replay rebuilds campaign id from its journal: the campaign its first
// record submitted, then every later record in log order, skipping any
// whose seq is not above the last one applied (a retried append may repeat
// records). Lines that are not records are skipped, and LoadLog has
// already dropped a torn tail. Every lease id a record names raises the
// lease counter, even when the journal does not restore, so no lease id is
// issued twice.
func (c *Coordinator) replay(id string) (*campaignState, error) {
	log, err := c.area.LoadLog(id+".events", 0)
	if err != nil {
		return nil, err
	}
	var camp *campaignState
	for len(log) > 0 {
		var line []byte
		line, log, _ = bytes.Cut(log, []byte{'\n'})
		r := lineRecord(line)
		if r == nil {
			continue
		}
		c.nextLease = max(c.nextLease, r.Resolved)
		if r.Lease != nil {
			c.nextLease = max(c.nextLease, r.Lease.ID)
		}
		if r.Cell != nil {
			c.nextLease = max(c.nextLease, r.Cell.Lease)
		}
		switch {
		case err != nil:
		case camp == nil:
			if camp, err = campaignFromSubmit(id, r); err == nil {
				err = c.apply(camp, r)
			}
		case r.Seq > camp.seq:
			err = c.apply(camp, r)
		}
	}
	if err == nil && camp == nil {
		err = fmt.Errorf("campaign %s: the journal holds no record", id)
	}
	if err != nil {
		for lid, l := range c.leases {
			if l.campaign == camp {
				delete(c.leases, lid)
			}
		}
		return nil, err
	}
	return camp, nil
}

// loadCampaigns restores every campaign on the store at coordinator start
// by replaying its journal. A campaign still running resumes scheduling
// exactly where the previous process stopped: its restore is journaled,
// stale leases re-expire through the ordinary lazy-expiry path, and cells
// whose store block landed before the crash (but whose transition did
// not) are recovered as done, each with its record — the store is the
// source of truth for completed work, so a crash can never double-count
// or lose a cell. A campaign that has ended is restored without a write.
// A journal that does not replay is skipped with a warning; its id and
// lease ids still count, so neither is issued again. Called from
// NewCoordinator before the coordinator is shared, so no locking is
// needed.
func (c *Coordinator) loadCampaigns() error {
	names, err := c.area.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		id, ok := strings.CutSuffix(name, ".events")
		if !ok {
			continue
		}
		c.nextCamp = max(c.nextCamp, campNumber(id))
		camp, err := c.replay(id)
		if err != nil {
			c.metrics().Counter("campaign.docs.skipped").NonGolden().Inc()
			c.logger().Warn("campaign journal skipped; resubmit its spec, whose finished cells are store hits",
				obs.F("campaign", id), obs.F("err", err.Error()))
			continue
		}
		c.campaigns = append(c.campaigns, camp)
		c.byID[id] = camp
		c.metrics().Counter("campaign.restored").NonGolden().Inc()
		if camp.state != StateRunning {
			continue
		}
		var recovered []*cellState
		for _, cell := range camp.cells {
			open := cell.state == cellPending || cell.state == cellLeased
			if open && c.opts.Store.Get(cell.Key, cell.Runs, cell.SeedBase) != nil {
				recovered = append(recovered, cell)
			}
		}
		c.eventLocked(camp, "campaign restored from durable state",
			obs.F("state", camp.state), obs.F("cells", len(camp.cells)),
			obs.F("recovered_from_store", len(recovered)))
		for _, cell := range recovered {
			cell.state, cell.err = cellDone, ""
			c.eventLocked(camp, "cell recovered from store", obs.F("cell", cell.Bench), obs.F("trace", camp.trace))
			c.refreshLocked(camp)
			c.commitLocked(camp, cell, nil)
		}
		c.flushLocked(camp)
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
