package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// coordState renders everything a restore must reproduce: each campaign's
// state, trace and journal position, every cell's scheduling state, the
// lease table (retired leases included) and the lease counter.
func coordState(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	type campDump struct {
		ID, State, Err, Trace string
		Seq                   uint64
		Cells                 []persistedCell
	}
	var dump struct {
		Campaigns []campDump
		Leases    []persistedLease
		NextLease uint64
	}
	for _, camp := range c.campaigns {
		d := campDump{ID: camp.id, State: camp.state, Err: camp.err, Trace: camp.trace, Seq: camp.seq}
		for _, cell := range camp.cells {
			d.Cells = append(d.Cells, cellRecord(cell))
		}
		dump.Campaigns = append(dump.Campaigns, d)
	}
	for _, l := range c.leases {
		dump.Leases = append(dump.Leases, leaseRecord(l))
	}
	sort.Slice(dump.Leases, func(i, j int) bool { return dump.Leases[i].ID < dump.Leases[j].ID })
	dump.NextLease = c.nextLease
	buf, _ := json.Marshal(dump)
	return string(buf)
}

// journalRig is one coordinator over an on-disk store with a settable
// clock, driven step by step through the scheduling transitions.
type journalRig struct {
	t     *testing.T
	dir   string
	clock time.Time
	opts  CoordinatorOptions
	c     *Coordinator
	ids   []string
}

func newJournalRig(t *testing.T, dir string) *journalRig {
	r := &journalRig{t: t, dir: dir, clock: time.Unix(1700000000, 0)}
	r.opts = CoordinatorOptions{LeaseTTL: 30 * time.Second, MaxAttempts: 2, now: func() time.Time { return r.clock }}
	r.c = r.open()
	return r
}

// open starts a coordinator on the rig's directory — a restart when one
// is already running there.
func (r *journalRig) open() *Coordinator {
	r.t.Helper()
	st, err := store.Open(r.dir)
	if err != nil {
		r.t.Fatalf("open store: %v", err)
	}
	opts := r.opts
	opts.Store, opts.Obs = st, obs.NewScope()
	c, err := NewCoordinator(opts)
	if err != nil {
		r.t.Fatalf("coordinator: %v", err)
	}
	return c
}

func (r *journalRig) submit(benches ...string) {
	r.t.Helper()
	sp := testSpec()
	sp.Benchmarks = benches
	sp.Seed += uint64(len(r.ids))
	id, _, _, err := r.c.Submit(sp)
	if err != nil {
		r.t.Fatalf("submit: %v", err)
	}
	r.ids = append(r.ids, id)
}

func (r *journalRig) grant(worker string) *Lease {
	r.t.Helper()
	resp := acquire(r.t, r.c, worker)
	if resp.Lease == nil {
		r.t.Fatalf("%s: no lease granted", worker)
	}
	return resp.Lease
}

// complete posts a cell's results (fail == "") or a worker error, with a
// span record and one forwarded worker line, as a real worker would.
func (r *journalRig) complete(id uint64, worker, fail string) error {
	now := r.clock.UnixNano()
	req := CompleteRequest{
		Worker: worker, Error: fail,
		Events:     []json.RawMessage{json.RawMessage(fmt.Sprintf(`{"level":"info","msg":"cell computed","worker":%q}`, worker))},
		SpanRecord: &SpanRecord{Worker: worker, StartUnixNs: now - 1e6, EndUnixNs: now},
	}
	if fail == "" {
		req.Results = fakeResults(testSpec().Runs)
	}
	return r.c.Complete(id, req)
}

// TestReplayMatchesLiveAtEveryTransition crashes the coordinator after
// every kind of scheduling transition — submit, grant, completion, worker
// failure with requeue, expiry, release, a late completion against a
// retired lease, a retired lease's expiry, and a campaign ending done or
// failed — and opens a second coordinator on the same directory. The
// restored coordinator must hold exactly the live one's state, grant the
// same next lease, and answer a completion against every lease id ever
// issued the same way.
func TestReplayMatchesLiveAtEveryTransition(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	expire := func(r *journalRig) {
		r.clock = r.clock.Add(31 * time.Second)
		r.c.Status(r.ids[0])
	}
	steps := []struct {
		name string
		do   func(r *journalRig)
	}{
		{"submit", func(r *journalRig) { r.submit("astar", "bzip2", "mcf") }},
		{"grant astar", func(r *journalRig) { r.grant("w1") }},
		{"grant bzip2", func(r *journalRig) { r.grant("w2") }},
		{"complete astar", func(r *journalRig) { must(r.complete(1, "w1", "")) }},
		{"grant mcf", func(r *journalRig) { r.grant("w3") }},
		{"worker failure requeues mcf", func(r *journalRig) { must(r.complete(3, "w3", "boom")) }},
		{"expiry requeues bzip2", expire},
		{"grant bzip2 again", func(r *journalRig) { r.grant("w4") }},
		{"release bzip2", func(r *journalRig) {
			if !r.c.Release(4, "w4") {
				t.Fatal("release refused")
			}
		}},
		{"grant bzip2 once more", func(r *journalRig) { r.grant("w5") }},
		{"late completion on retired lease", func(r *journalRig) { must(r.complete(2, "w2", "")) }},
		{"retired lease expires", expire},
		{"grant mcf again", func(r *journalRig) { r.grant("w6") }},
		{"campaign done", func(r *journalRig) { must(r.complete(6, "w6", "")) }},
		{"submit second", func(r *journalRig) { r.submit("milc") }},
		{"grant milc", func(r *journalRig) { r.grant("w7") }},
		{"milc fails once", func(r *journalRig) { must(r.complete(7, "w7", "boom")) }},
		{"grant milc again", func(r *journalRig) { r.grant("w8") }},
		{"campaign failed", func(r *journalRig) { must(r.complete(8, "w8", "boom")) }},
	}
	for k := 1; k <= len(steps); k++ {
		name := steps[k-1].name
		live := newJournalRig(t, t.TempDir())
		for _, s := range steps[:k] {
			s.do(live)
		}
		restored := &journalRig{t: t, dir: live.dir, clock: live.clock, ids: live.ids}
		restored.opts = live.opts
		restored.opts.now = func() time.Time { return restored.clock }
		restored.c = restored.open()
		if a, b := coordState(live.c), coordState(restored.c); a != b {
			t.Fatalf("after %q restore differs from live:\nlive     %s\nrestored %s", name, a, b)
		}
		for _, id := range live.ids {
			a, _ := live.c.Status(id)
			b, _ := restored.c.Status(id)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("after %q status differs:\nlive     %+v\nrestored %+v", name, a, b)
			}
		}
		a, b := acquire(t, live.c, "next"), acquire(t, restored.c, "next")
		if (a.Lease == nil) != (b.Lease == nil) || a.Remaining != b.Remaining ||
			(a.Lease != nil && (a.Lease.ID != b.Lease.ID || a.Lease.Bench != b.Lease.Bench || a.Lease.Attempt != b.Lease.Attempt)) {
			t.Fatalf("after %q next grant differs: live %+v / %+v, restored %+v / %+v", name, a, a.Lease, b, b.Lease)
		}
		live.c.mu.Lock()
		issued := live.c.nextLease
		live.c.mu.Unlock()
		for id := uint64(1); id <= issued; id++ {
			errA, errB := live.complete(id, "late", ""), restored.complete(id, "late", "")
			if (errA == nil) != (errB == nil) {
				t.Fatalf("after %q late completion of lease %d: live %v, restored %v", name, id, errA, errB)
			}
		}
		if a, b := coordState(live.c), coordState(restored.c); a != b {
			t.Fatalf("after %q and late completions, restore differs from live:\nlive     %s\nrestored %s", name, a, b)
		}
	}
}

// TestReplayTornTailRestoresPriorState tears the journal in the middle of
// a transition's record: restore must equal the state before that
// transition, and the coordinator must repair the tail so its own records
// replay on the next restart.
func TestReplayTornTailRestoresPriorState(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar", "bzip2")
	r.grant("w1")
	r.grant("w2")
	before := coordState(r.c)
	logPath := filepath.Join(r.dir, "campaigns", r.ids[0]+".events.jsonl")
	intact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.complete(1, "w1", "boom"); err != nil { // worker failure: no store write
		t.Fatal(err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The failure's lines: the forwarded worker line, the span, the failure
	// and the requeue, which carries the record. Cut the record in half.
	added := after[len(intact):]
	recAt := bytes.Index(added, []byte(`"rec":`))
	if recAt < 0 || bytes.Count(added, []byte("\n")) != 4 {
		t.Fatalf("failure transition wrote unexpected lines:\n%s", added)
	}
	if err := os.Truncate(logPath, int64(len(intact)+recAt+10)); err != nil {
		t.Fatal(err)
	}

	r.c = r.open()
	if got := coordState(r.c); got != before {
		t.Fatalf("restore after torn record:\ngot  %s\nwant %s", got, before)
	}
	// The fragment is gone: the whole lines before it are followed by the
	// restored coordinator's first line.
	whole := len(intact) + bytes.LastIndexByte(added[:recAt], '\n') + 1
	repaired := mustRead(t, logPath)
	if !bytes.Equal(repaired[:whole], after[:whole]) ||
		!bytes.HasPrefix(repaired[whole:], []byte(`{"level":"info","msg":"campaign restored from durable state"`)) {
		t.Fatalf("torn tail not cut back to the last whole line:\n%s", repaired[len(intact):])
	}
	// The restored coordinator's own transition lands on a line boundary
	// and replays after another restart.
	if err := r.complete(1, "w1", "boom"); err != nil {
		t.Fatal(err)
	}
	live := coordState(r.c)
	r.c = r.open()
	if got := coordState(r.c); got != live {
		t.Fatalf("restore after repair:\ngot  %s\nwant %s", got, live)
	}
	if tl, err := BuildTimeline(mustRead(t, logPath), r.ids[0]); err != nil || tl.Report.MalformedLines != 0 {
		t.Fatalf("timeline over the repaired journal: %v, %+v", err, tl.Report)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReplayFaultedAppendRetried fails one journal append at the
// coord.persist fault site — a release, so without it the journal's last
// record for that cell and lease is stale. Scheduling carries on, the next
// transition's append writes the failed one's lines ahead of its own, and
// a restart restores the live state exactly from records numbered without
// a gap; records a partial write repeated are skipped.
func TestReplayFaultedAppendRetried(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar", "bzip2", "mcf")
	r.grant("w1")
	r.grant("w2")
	m := r.c.metrics()
	logPath := filepath.Join(r.dir, "campaigns", r.ids[0]+".events.jsonl")
	before := mustRead(t, logPath)

	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCoordPersist, Kind: faultinject.KindError, Nth: 1,
	})
	defer deactivate()
	if !r.c.Release(2, "w2") { // its append fails
		t.Fatal("release refused")
	}
	if got := m.Counter("campaign.events.unjournaled").Value(); got != 1 {
		t.Fatalf("unjournaled lines = %d, want 1", got)
	}
	if got := mustRead(t, logPath); !bytes.Equal(got, before) {
		t.Fatalf("a failed append changed the journal:\n%s", got[len(before):])
	}
	appends := m.Counter("campaign.journal.appends").Value()
	if err := r.complete(1, "w1", ""); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("campaign.journal.appends").Value(); got != appends+1 {
		t.Fatalf("the retry and the next transition took %d appends, want 1", got-appends)
	}
	if added := mustRead(t, logPath)[len(before):]; !bytes.HasPrefix(added, []byte(`{"level":"info","msg":"lease released (worker draining)"`)) {
		t.Fatalf("the next append does not start with the failed one's line:\n%s", added)
	}
	r.grant("w3") // back to plain appends
	if got := m.Counter("campaign.events.unjournaled").Value(); got != 1 {
		t.Fatalf("unjournaled lines = %d after the retry, want 1", got)
	}
	journal := mustRead(t, logPath)
	records := uint64(0)
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		if rec := lineRecord(line); rec != nil {
			if records++; rec.Seq != records {
				t.Fatalf("record %d has seq %d:\n%s", records, rec.Seq, journal)
			}
		}
	}
	if records != 6 { // the submit, three grants, the release, the completion
		t.Fatalf("%d records in the journal, want 6", records)
	}
	live := coordState(r.c)
	r.c = r.open()
	if got := coordState(r.c); got != live {
		t.Fatalf("restore after a failed append:\ngot  %s\nwant %s", got, live)
	}
	// A partial write that landed records before it failed repeats them
	// when it is retried: replay skips every record it has applied.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(journal)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	live = coordState(r.c)
	r.c = r.open()
	if got := coordState(r.c); got != live {
		t.Fatalf("restore over repeated records:\ngot  %s\nwant %s", got, live)
	}
}

// TestSkippedJournalKeepsItsIDs damages the first line of a campaign's
// journal, its submit record, so a restart skips that campaign. Its id and
// the lease ids it journaled stay taken: the next submission gets the next
// id and a lease numbered above them, and a second restart restores the
// new campaign exactly.
func TestSkippedJournalKeepsItsIDs(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar", "bzip2")
	r.grant("w1")
	r.grant("w2")
	r.submit("mcf", "milc")
	r.grant("w3")
	r.grant("w4")
	logPath := filepath.Join(r.dir, "campaigns", "c0002.events.jsonl")
	journal := mustRead(t, logPath)
	end := bytes.IndexByte(journal, '\n')
	if err := os.WriteFile(logPath, append(journal[:end/2:end/2], journal[end:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	r.c = r.open()
	if got := r.c.metrics().Counter("campaign.docs.skipped").Value(); got != 1 {
		t.Fatalf("journals skipped = %d, want 1", got)
	}
	if _, ok := r.c.Status("c0002"); ok {
		t.Fatal("campaign c0002 restored without its submit record")
	}
	r.submit("astar", "bzip2")
	if got := r.ids[2]; got != "c0003" {
		t.Fatalf("submission after the skip got id %s, want c0003", got)
	}
	if l := r.grant("w5"); l.Campaign != "c0003" || l.ID != 5 {
		t.Fatalf("grant %+v, want lease 5 of c0003: c0002 journaled leases 3 and 4", l)
	}
	live := coordState(r.c)
	r.c = r.open()
	if got := coordState(r.c); got != live {
		t.Fatalf("second restore:\ngot  %s\nwant %s", got, live)
	}
}

// TestRestartLeavesFinishedCampaignsAlone restarts a coordinator over one
// campaign that finished normally and one that the restart itself finishes
// by recovering its leased cell from the store (the crash window of
// TestRestartRecoversStoreOnlyCompletions). A second restart must write
// nothing: every file under campaigns/ stays byte-identical, each journal
// holds exactly one "campaign complete" line, and the state restores as
// the first restart left it.
func TestRestartLeavesFinishedCampaignsAlone(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar")
	if err := r.complete(r.grant("w1").ID, "w1", ""); err != nil {
		t.Fatal(err)
	}
	r.submit("bzip2")
	r.grant("w2")
	r.c.mu.Lock()
	cell := r.c.byID[r.ids[1]].cells[0].CellSpec
	r.c.mu.Unlock()
	if err := r.c.opts.Store.Put(cell.Key, cell.Runs, cell.SeedBase, fakeResults(cell.Runs)); err != nil {
		t.Fatal(err)
	}

	r.c = r.open()
	if st, _ := r.c.Status(r.ids[1]); st.State != StateDone {
		t.Fatalf("restart did not finish %s from the store: %+v", r.ids[1], st)
	}
	area := filepath.Join(r.dir, "campaigns")
	files := func() map[string]string {
		entries, err := os.ReadDir(area)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			out[e.Name()] = string(mustRead(t, filepath.Join(area, e.Name())))
		}
		return out
	}
	first, live := files(), coordState(r.c)
	r.c = r.open()
	after := files()
	for name, buf := range after {
		if first[name] != buf {
			t.Errorf("a restart over finished campaigns changed %s (%d -> %d bytes)", name, len(first[name]), len(buf))
		}
	}
	if len(after) != len(first) {
		t.Errorf("a restart over finished campaigns changed the files in campaigns/ from %d to %d", len(first), len(after))
	}
	if got := coordState(r.c); got != live {
		t.Fatalf("second restore:\ngot  %s\nwant %s", got, live)
	}
	for _, id := range r.ids {
		if n := strings.Count(first[id+".events.jsonl"], `"msg":"campaign complete"`); n != 1 {
			t.Fatalf("%s journals %d campaign-complete lines, want 1", id, n)
		}
	}
}

// TestReplayJournalWriteCounts pins the cost of the journal: a drained
// campaign writes its journal and nothing else, one append and one record
// per transition, and a cell costs two appends and three fence checks —
// the grant, the store write, the completion.
func TestReplayJournalWriteCounts(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fence, _, err := st.Coordination().TryAcquire("counted", time.Hour, time.Now())
	if err != nil || fence == nil {
		t.Fatalf("coordination lease: %v %v", fence, err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope(), Fence: fence})
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(1)() // an empty plan: count site hits only
	sp := testSpec()
	id, cells, _, err := c.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		appends, checks := faultinject.Hits(faultinject.SiteCoordPersist), faultinject.Hits(faultinject.SiteLeaseSteal)
		grant := acquire(t, c, "w")
		if err := c.Complete(grant.Lease.ID, CompleteRequest{Worker: "w", Results: fakeResults(sp.Runs)}); err != nil {
			t.Fatal(err)
		}
		if got := faultinject.Hits(faultinject.SiteCoordPersist) - appends; got != 2 {
			t.Fatalf("cell %d: %d journal writes, want 2 appends", i, got)
		}
		if got := faultinject.Hits(faultinject.SiteLeaseSteal) - checks; got != 3 {
			t.Fatalf("cell %d: %d fence checks, want 3", i, got)
		}
	}
	m := c.metrics()
	transitions := uint64(1 + 2*cells) // submit, then a grant and a completion per cell
	if got := m.Counter("campaign.journal.appends").Value(); got != transitions {
		t.Fatalf("journal appends = %d, want %d (one per transition)", got, transitions)
	}
	journal, _, err := c.events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := uint64(0)
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		if r := lineRecord(line); r != nil {
			records++
			if r.Seq != records {
				t.Fatalf("record %d has seq %d", records, r.Seq)
			}
		}
	}
	if records != transitions {
		t.Fatalf("%d records in the journal, want %d", records, transitions)
	}
	if stat, _ := c.Status(id); stat.State != StateDone {
		t.Fatalf("campaign %+v, want done", stat)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "campaigns"))
	if err != nil || len(entries) != 1 || entries[0].Name() != id+".events.jsonl" {
		t.Fatalf("campaigns/ holds %v (%v), want only the journal", entries, err)
	}
}

// TestWorkerEventsCompactedAndNeverReplayed forwards a pretty-printed
// worker line and lines carrying the journal's record field through
// Complete. The first lands as exactly one compact journal line; the
// others — a forged record, and the field with any other value — are
// rejected and counted, so nothing a worker sends can replay as state.
func TestWorkerEventsCompactedAndNeverReplayed(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar", "bzip2")
	grant := r.grant("w1")
	pretty := json.RawMessage("{\n  \"msg\": \"x\",\n  \"n\": [1, 2]\n}")
	forged := json.RawMessage(`{"msg":"cell computed","REC":{"seq":99,"state":"failed","err":"forged",` +
		`"cell":{"bench":"bzip2","state":"failed","attempts":9}}}`)
	if err := r.c.Complete(grant.ID, CompleteRequest{
		Worker: "w1", Results: fakeResults(testSpec().Runs),
		Events: []json.RawMessage{pretty, forged, json.RawMessage(`{"msg":"forged too","rec":7}`)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.c.metrics().Counter("campaign.events.rejected").Value(); got != 2 {
		t.Fatalf("rejected worker lines = %d, want 2", got)
	}
	journal, _, err := r.c.events(r.ids[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte(`{"msg":"x","n":[1,2]}`+"\n")); n != 1 {
		t.Fatalf("pretty-printed worker line appears %d times as one compact line:\n%s", n, journal)
	}
	if bytes.Contains(journal, []byte("forged")) {
		t.Fatalf("forged worker line reached the journal:\n%s", journal)
	}
	if tl, err := BuildTimeline(journal, r.ids[0]); err != nil || tl.Report.MalformedLines != 0 {
		t.Fatalf("timeline: %v, %+v", err, tl.Report)
	}
	live := coordState(r.c)
	r.c = r.open()
	if got := coordState(r.c); got != live || strings.Contains(got, "forged") {
		t.Fatalf("restore after forwarded lines:\ngot  %s\nwant %s", got, live)
	}
}

// eventsPage GETs one page of a campaign's events from the coordinator at
// base, from cursor since.
func eventsPage(t *testing.T, base, id, since string) (code int, body []byte, next string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events?since=" + since)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get(HeaderEventsNext)
}

// TestEventsCursorAcrossRestart follows a campaign's events across a
// coordinator restart: the first page comes from the first coordinator,
// the rest from the restarted one, starting at the first page's cursor.
// Joined, the pages are the journal on disk byte for byte, the restored
// coordinator's "campaign restored" line included.
func TestEventsCursorAcrossRestart(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar", "bzip2")
	l := r.grant("w1")
	if err := r.complete(l.ID, "w1", ""); err != nil {
		t.Fatal(err)
	}
	first := httptest.NewServer(r.c.Handler())
	code, page1, next := eventsPage(t, first.URL, r.ids[0], "0")
	first.Close()
	if code != http.StatusOK || len(page1) == 0 || next != strconv.Itoa(len(page1)) {
		t.Fatalf("first page: status %d, %d bytes, next %q", code, len(page1), next)
	}

	r.c = r.open()
	r.grant("w2")
	second := httptest.NewServer(r.c.Handler())
	defer second.Close()
	code, page2, next2 := eventsPage(t, second.URL, r.ids[0], next)
	if code != http.StatusOK || next2 != strconv.Itoa(len(page1)+len(page2)) {
		t.Fatalf("page after the restart: status %d, %d bytes, next %q", code, len(page2), next2)
	}
	if !bytes.HasPrefix(page2, []byte(`{"level":"info","msg":"campaign restored from durable state"`)) {
		t.Fatalf("page after the restart does not start at the restore:\n%s", page2)
	}
	journal := mustRead(t, filepath.Join(r.dir, "campaigns", r.ids[0]+".events.jsonl"))
	if joined := append(page1, page2...); !bytes.Equal(joined, journal) {
		t.Fatalf("pages across the restart differ from the journal:\npages\n%s\njournal\n%s", joined, journal)
	}
}

// TestEventsFollowWhileRunning follows a campaign from its submission
// while two workers drain it, so pages are read while the coordinator
// appends to the journal: joined, they are a prefix of the journal that
// reaches the campaign's completion.
func TestEventsFollowWhileRunning(t *testing.T) {
	_, st, client := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var followed bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- client.Events(ctx, resp.ID, true, &followed) }()
	runWorkers(t, client, 2)
	if err := <-done; err != nil {
		t.Fatalf("follow: %v", err)
	}
	journal := mustRead(t, filepath.Join(st.Dir(), "campaigns", resp.ID+".events.jsonl"))
	if !bytes.HasPrefix(journal, followed.Bytes()) || !bytes.Contains(followed.Bytes(), []byte(`"msg":"campaign complete"`)) {
		t.Fatalf("followed events are not a prefix of the journal through its completion:\nfollowed\n%s\njournal\n%s", followed.Bytes(), journal)
	}
}

// TestEventsCursorBounds: a cursor at the journal's end reads no bytes and
// stays put; a negative, malformed, mid-line or past-the-end cursor is a
// 400, and an unknown campaign a 404.
func TestEventsCursorBounds(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar")
	r.grant("w1")
	ts := httptest.NewServer(r.c.Handler())
	defer ts.Close()
	journal := mustRead(t, filepath.Join(r.dir, "campaigns", r.ids[0]+".events.jsonl"))
	end := strconv.Itoa(len(journal))
	if code, body, next := eventsPage(t, ts.URL, r.ids[0], end); code != http.StatusOK || len(body) != 0 || next != end {
		t.Fatalf("cursor at the end: status %d, %q, next %q; want 200, nothing, %s", code, body, next, end)
	}
	midLine := strconv.Itoa(bytes.IndexByte(journal, '\n') / 2)
	for _, since := range []string{"-1", "x", midLine, strconv.Itoa(len(journal) + 1)} {
		if code, body, _ := eventsPage(t, ts.URL, r.ids[0], since); code != http.StatusBadRequest {
			t.Errorf("since=%s: status %d, want 400:\n%s", since, code, body)
		}
	}
	if code, _, _ := eventsPage(t, ts.URL, "c0099", "0"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
}

// BenchmarkCoordinatorCell measures one cell's coordinator cost: a fenced
// Acquire and Complete over a real on-disk store — the grant's journal
// append, the store write, and the completion's journal append, each
// behind a fence check. Campaigns are submitted outside the timer.
func BenchmarkCoordinatorCell(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	fence, _, err := st.Coordination().TryAcquire("bench", time.Hour, time.Now())
	if err != nil || fence == nil {
		b.Fatalf("coordination lease: %v %v", fence, err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope(), Fence: fence})
	if err != nil {
		b.Fatal(err)
	}
	sp := Spec{Benchmarks: SuiteNames(spec.Suite()), Config: testSpec().Config, Runs: 1}
	results := fakeResults(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grant := acquire(b, c, "bench")
		if grant.Lease == nil {
			b.StopTimer()
			sp.Seed++
			if _, _, _, err := c.Submit(sp); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			grant = acquire(b, c, "bench")
		}
		if err := c.Complete(grant.Lease.ID, CompleteRequest{Worker: "bench", Results: results}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinatorRestore measures a coordinator restart on a fenced
// on-disk store holding 40 or 120 finished campaigns of 18 one-run cells:
// one op opens the store and builds a coordinator, which replays every
// campaign's journal from its submit record. A finished campaign is
// restored without a write, so every op restores the same files.
func BenchmarkCoordinatorRestore(b *testing.B) {
	for _, campaigns := range []int{40, 120} {
		b.Run(fmt.Sprintf("campaigns=%d", campaigns), func(b *testing.B) {
			dir := b.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			fence, _, err := st.Coordination().TryAcquire("bench", time.Hour, time.Now())
			if err != nil || fence == nil {
				b.Fatalf("coordination lease: %v %v", fence, err)
			}
			c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope(), Fence: fence})
			if err != nil {
				b.Fatal(err)
			}
			sp := Spec{Benchmarks: SuiteNames(spec.Suite()), Config: testSpec().Config, Runs: 1}
			for i := 0; i < campaigns; i++ {
				sp.Seed++
				if _, _, _, err := c.Submit(sp); err != nil {
					b.Fatal(err)
				}
				for grant := acquire(b, c, "bench"); grant.Lease != nil; grant = acquire(b, c, "bench") {
					if err := c.Complete(grant.Lease.ID, CompleteRequest{Worker: "bench", Results: fakeResults(1)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope(), Fence: fence}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRestartKeepsHeartbeatExtendedLease restarts the coordinator while a
// worker that has heartbeated its lease for three TTLs is still computing.
// The restored lease must still be live: its worker's next heartbeat and
// its completion are accepted, and no other worker is granted the cell.
// The journal gains one "lease extended" line per half TTL of extension,
// not one per heartbeat.
func TestRestartKeepsHeartbeatExtendedLease(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar")
	l := r.grant("w1")
	// Heartbeat at a third of the TTL for three TTLs, as workers do.
	for i := 0; i < 9; i++ {
		r.clock = r.clock.Add(10 * time.Second)
		if !r.c.Heartbeat(l.ID) {
			t.Fatalf("heartbeat %d rejected", i+1)
		}
	}

	// Crash, and restart 5 s after the last heartbeat: the grant's own
	// deadline passed a minute ago, the extended one has 25 s to run.
	r.clock = r.clock.Add(5 * time.Second)
	r.c = r.open()
	if resp := acquire(r.t, r.c, "w2"); resp.Lease != nil {
		t.Fatalf("restart re-granted a live lease's cell: %+v", resp.Lease)
	}
	r.clock = r.clock.Add(5 * time.Second)
	if !r.c.Heartbeat(l.ID) {
		t.Fatal("restart expired a lease its worker kept alive")
	}
	if err := r.complete(l.ID, "w1", ""); err != nil {
		t.Fatalf("complete after restart: %v", err)
	}
	stat, ok := r.c.Status(r.ids[0])
	if !ok || stat.State != StateDone {
		t.Fatalf("status after completion: %+v", stat)
	}
	if got := r.c.metrics().Counter("campaign.leases.expired").Value(); got != 0 {
		t.Fatalf("%d leases expired, want 0", got)
	}
	log, err := os.ReadFile(filepath.Join(r.dir, "campaigns", r.ids[0]+".events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeats 2, 4, 6, 8 and 10 each move the deadline 20 s past the
	// journaled one.
	if got := strings.Count(string(log), `"msg":"lease extended"`); got != 5 {
		t.Fatalf("%d lease-extended lines for 10 heartbeats, want 5", got)
	}
}

// TestRestartBetweenJournaledHeartbeats restarts the coordinator just after
// a heartbeat that was not journaled, when the journaled deadline is the
// oldest it can be. The worker's next heartbeat, a third of a TTL after its
// last, must still find its lease live, and no other worker may be granted
// the cell in between.
func TestRestartBetweenJournaledHeartbeats(t *testing.T) {
	r := newJournalRig(t, t.TempDir())
	r.submit("astar")
	start := r.clock
	l := r.grant("w1")
	for i := 1; i <= 5; i++ {
		r.clock = start.Add(time.Duration(i) * 10 * time.Second)
		if !r.c.Heartbeat(l.ID) {
			t.Fatalf("heartbeat at %ds rejected", 10*i)
		}
	}

	// Crash, and restart at 51 s. The last heartbeat, at 50 s, moved the
	// deadline to 80 s in memory only.
	r.clock = start.Add(51 * time.Second)
	r.c = r.open()
	if resp := acquire(r.t, r.c, "w2"); resp.Lease != nil {
		t.Fatalf("restart re-granted a live lease's cell: %+v", resp.Lease)
	}
	r.clock = start.Add(60*time.Second + time.Millisecond)
	if !r.c.Heartbeat(l.ID) {
		t.Fatal("restart expired a lease whose worker heartbeats every third of a TTL")
	}
	if resp := acquire(r.t, r.c, "w2"); resp.Lease != nil {
		t.Fatalf("cell re-granted after the heartbeat: %+v", resp.Lease)
	}
	if err := r.complete(l.ID, "w1", ""); err != nil {
		t.Fatalf("complete after restart: %v", err)
	}
	if got := r.c.metrics().Counter("campaign.leases.expired").Value(); got != 0 {
		t.Fatalf("%d leases expired, want 0", got)
	}
}
