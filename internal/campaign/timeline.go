package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// This file reconstructs a campaign's execution timeline from its durable
// event journal: the per-campaign JSONL log every coordinator appends to
// the store (surviving restarts, failovers, and event-ring wraps). The
// reconstruction merges the coordinator's scheduling events (lease granted
// / expired / released, cell requeued / complete) with the worker-side
// span records folded into the journal at completion ("cell span" lines)
// into one multi-process Chrome trace: pid 1 is the coordinator's
// scheduling view, each worker gets its own pid, and each cell gets a tid
// shared across processes so an attempt's grant, compute, and completion
// line up vertically in Perfetto.
//
// BuildTimeline is a pure function of the journal bytes: reconstructing
// the same journal twice yields byte-identical trace output (pinned by
// test). All timestamps are wall-clock and therefore non-golden — the
// timeline is for humans chasing stragglers, not for golden diffs. Worker
// span timestamps come from the worker's own clock; cross-host skew shows
// up as compute spans slightly offset from their grant span, which is
// honest: the journal records what each process observed.

// Timeline is a campaign's reconstructed execution history.
type Timeline struct {
	Campaign string
	Trace    string
	// Events is the Chrome trace-event stream (metadata first, then the
	// journal's events in log order).
	Events []obs.TraceEvent
	Report TimelineReport
}

// TimelineReport is the analysis layer over the trace: per-cell timings
// and the campaign-level critical path.
type TimelineReport struct {
	Campaign string `json:"campaign"`
	Trace    string `json:"trace"`
	// Failovers counts coordinator restore events in the journal — each one
	// is a process that took over (or restarted) mid-campaign.
	Failovers int `json:"failovers"`
	// TotalSeconds spans the first journal timestamp to the last.
	TotalSeconds float64 `json:"total_seconds"`
	// CriticalPath names the cell that finished last — the one that set the
	// campaign's wall-clock time.
	CriticalPath string `json:"critical_path,omitempty"`
	// Cells is sorted by completion time, latest first, so the stragglers
	// lead the report.
	Cells []CellTimeline `json:"cells"`
	// MalformedLines counts journal lines that failed to parse (torn tail,
	// foreign content); they are skipped, not fatal.
	MalformedLines int `json:"malformed_lines,omitempty"`
}

// CellTimeline is one cell's reconstructed schedule.
type CellTimeline struct {
	Cell string `json:"cell"`
	// QueueWaitSeconds is submit → first lease grant.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	Attempts         int     `json:"attempts"`
	Requeues         int     `json:"requeues"`
	// Workers lists every worker that held a lease on the cell, in order.
	Workers []string `json:"workers,omitempty"`
	// RunSeconds sums the worker-reported compute spans.
	RunSeconds float64 `json:"run_seconds"`
	// LostSeconds sums lease time that produced nothing: attempts ended by
	// expiry or a draining release.
	LostSeconds float64 `json:"lost_seconds"`
	// EndSeconds is when the cell completed, relative to the journal start
	// (0 = never completed in this journal).
	EndSeconds float64 `json:"end_seconds"`
	Failed     bool    `json:"failed,omitempty"`
	StoreHit   bool    `json:"store_hit,omitempty"`
}

// journalLine is the superset of fields the coordinator's event journal
// emits; unknown fields are ignored.
type journalLine struct {
	Msg         string `json:"msg"`
	Campaign    string `json:"campaign"`
	Cell        string `json:"cell"`
	Worker      string `json:"worker"`
	Attempt     int    `json:"attempt"`
	Lease       uint64 `json:"lease"`
	Tenant      string `json:"tenant"`
	Trace       string `json:"trace"`
	Span        string `json:"span"`
	Reason      string `json:"reason"`
	Err         string `json:"err"`
	State       string `json:"state"`
	StoreHits   int    `json:"store_hits"`
	StartUnixNs int64  `json:"start_unix_ns"`
	EndUnixNs   int64  `json:"end_unix_ns"`
	T           int64  `json:"t_wall_ns_nongolden"`
}

// attemptOf recovers the attempt ordinal, preferring the span id's "#N"
// suffix (frozen at grant) over the live attempt counter.
func (jl *journalLine) attemptOf() int {
	if i := strings.LastIndexByte(jl.Span, '#'); i >= 0 {
		if n, err := strconv.Atoi(jl.Span[i+1:]); err == nil {
			return n
		}
	}
	return jl.Attempt
}

// BuildTimeline reconstructs a campaign's timeline from its event journal:
// the JSONL StateArea log named "<id>.events", read from the store or as a
// coordinator serves it on /events, byte for byte the same. id filters
// foreign lines and labels the output; "" accepts any campaign field.
func BuildTimeline(journal []byte, id string) (*Timeline, error) {
	var lines []journalLine
	malformed := 0
	for _, raw := range bytes.Split(journal, []byte("\n")) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var jl journalLine
		if err := json.Unmarshal(raw, &jl); err != nil || jl.Msg == "" {
			malformed++
			continue
		}
		if id != "" && jl.Campaign != "" && jl.Campaign != id {
			continue
		}
		lines = append(lines, jl)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("campaign: no usable journal lines for %q (%d malformed)", id, malformed)
	}

	tl := &Timeline{Campaign: id}
	if tl.Campaign == "" {
		tl.Campaign = lines[0].Campaign
	}

	// The time origin is the earliest timestamp any process reported —
	// coordinator journal stamps or worker span starts — so every ts in the
	// trace is non-negative even across skewed clocks.
	var t0, tMax int64
	for _, jl := range lines {
		for _, t := range []int64{jl.T, jl.StartUnixNs} {
			if t > 0 && (t0 == 0 || t < t0) {
				t0 = t
			}
		}
		for _, t := range []int64{jl.T, jl.EndUnixNs} {
			if t > tMax {
				tMax = t
			}
		}
	}
	usec := func(ns int64) float64 { return float64(ns-t0) / 1e3 }

	// pid 1 is the coordinator; workers get pids in order of first
	// appearance. Cells get tids the same way, shared across pids.
	const coordPid = int64(1)
	workerPid := map[string]int64{}
	workerOrder := []string{}
	cellTid := map[string]int64{}
	cellOrder := []string{}
	pidOf := func(worker string) int64 {
		if worker == "" {
			return coordPid
		}
		if pid, ok := workerPid[worker]; ok {
			return pid
		}
		pid := int64(len(workerPid)) + 2
		workerPid[worker] = pid
		workerOrder = append(workerOrder, worker)
		return pid
	}
	tidOf := func(cell string) int64 {
		if cell == "" {
			return 0
		}
		if tid, ok := cellTid[cell]; ok {
			return tid
		}
		tid := int64(len(cellTid)) + 1
		cellTid[cell] = tid
		cellOrder = append(cellOrder, cell)
		return tid
	}

	type openAttempt struct {
		startNs int64
		worker  string
	}
	open := map[string]*openAttempt{} // key: cell#attempt
	cells := map[string]*CellTimeline{}
	cellAt := func(name string) *CellTimeline {
		ct := cells[name]
		if ct == nil {
			ct = &CellTimeline{Cell: name}
			cells[name] = ct
		}
		return ct
	}
	var body []obs.TraceEvent
	var submittedNs int64
	closeAttempt := func(jl *journalLine, endNs int64, name string, lost bool) {
		key := jl.Cell + "#" + strconv.Itoa(jl.attemptOf())
		oa := open[key]
		if oa == nil {
			return
		}
		delete(open, key)
		dur := endNs - oa.startNs
		if dur < 0 {
			dur = 0
		}
		if lost {
			cellAt(jl.Cell).LostSeconds += float64(dur) / 1e9
		}
		body = append(body, obs.TraceEvent{
			Name: name, Cat: "lease", Ph: "X",
			Ts: usec(oa.startNs), Dur: float64(dur) / 1e3,
			Pid: coordPid, Tid: tidOf(jl.Cell),
			Args: map[string]any{"worker": oa.worker, "attempt": jl.attemptOf()},
		})
	}

	for i := range lines {
		jl := &lines[i]
		if jl.Trace != "" && tl.Trace == "" {
			tl.Trace = jl.Trace
		}
		switch jl.Msg {
		case "campaign submitted":
			submittedNs = jl.T
			body = append(body, obs.TraceEvent{
				Name: "campaign submitted", Cat: "campaign", Ph: "i",
				Ts: usec(jl.T), Pid: coordPid, Tid: 0,
				Args: map[string]any{"tenant": jl.Tenant, "trace": jl.Trace},
			})
		case "lease granted":
			ct := cellAt(jl.Cell)
			attempt := jl.attemptOf()
			if attempt > ct.Attempts {
				ct.Attempts = attempt
			}
			if len(ct.Workers) == 0 && submittedNs > 0 && jl.T > submittedNs {
				ct.QueueWaitSeconds = float64(jl.T-submittedNs) / 1e9
			}
			ct.Workers = append(ct.Workers, jl.Worker)
			pidOf(jl.Worker) // reserve the pid in appearance order
			open[jl.Cell+"#"+strconv.Itoa(attempt)] = &openAttempt{startNs: jl.T, worker: jl.Worker}
		case "cell complete":
			ct := cellAt(jl.Cell)
			ct.EndSeconds = float64(jl.T-t0) / 1e9
			closeAttempt(jl, jl.T, jl.Cell+" attempt "+strconv.Itoa(jl.attemptOf()), false)
		case "cell failed on worker":
			closeAttempt(jl, jl.T, jl.Cell+" attempt "+strconv.Itoa(jl.attemptOf())+" (error)", true)
		case "lease expired":
			closeAttempt(jl, jl.T, jl.Cell+" attempt "+strconv.Itoa(jl.attemptOf())+" (expired)", true)
		case "lease released (worker draining)":
			closeAttempt(jl, jl.T, jl.Cell+" attempt "+strconv.Itoa(jl.attemptOf())+" (released)", true)
		case "cell requeued":
			cellAt(jl.Cell).Requeues++
			body = append(body, obs.TraceEvent{
				Name: "requeue " + jl.Cell, Cat: "campaign", Ph: "i",
				Ts: usec(jl.T), Pid: coordPid, Tid: tidOf(jl.Cell),
				Args: map[string]any{"reason": jl.Reason},
			})
		case "cell span":
			// The worker-side compute span, on the worker's own clock.
			dur := jl.EndUnixNs - jl.StartUnixNs
			if dur < 0 {
				dur = 0
			}
			cellAt(jl.Cell).RunSeconds += float64(dur) / 1e9
			body = append(body, obs.TraceEvent{
				Name: jl.Cell + " compute", Cat: "compute", Ph: "X",
				Ts: usec(jl.StartUnixNs), Dur: float64(dur) / 1e3,
				Pid: pidOf(jl.Worker), Tid: tidOf(jl.Cell),
				Args: map[string]any{"span": jl.Span, "attempt": jl.attemptOf()},
			})
		case "campaign restored from durable state":
			tl.Report.Failovers++
			body = append(body, obs.TraceEvent{
				Name: "coordinator takeover", Cat: "campaign", Ph: "i",
				Ts: usec(jl.T), Pid: coordPid, Tid: 0,
				Args: map[string]any{"state": jl.State},
			})
		case "campaign complete", "campaign failed":
			body = append(body, obs.TraceEvent{
				Name: jl.Msg, Cat: "campaign", Ph: "i",
				Ts: usec(jl.T), Pid: coordPid, Tid: 0,
			})
			if jl.Msg == "campaign failed" && jl.Cell != "" {
				cellAt(jl.Cell).Failed = true
			}
		}
		// Pre-register cells and workers named by any message so tid/pid
		// assignment follows log order, not the switch above.
		if jl.Cell != "" {
			tidOf(jl.Cell)
		}
	}

	// Attempts still open when the journal ends (a crash mid-campaign, or a
	// live campaign) close at the last observed instant so the trace stays
	// loadable.
	var openKeys []string
	for key := range open {
		openKeys = append(openKeys, key)
	}
	sort.Strings(openKeys)
	for _, key := range openKeys {
		cell := key[:strings.LastIndexByte(key, '#')]
		jl := journalLine{Cell: cell, Span: key}
		closeAttempt(&jl, tMax, cell+" attempt "+strconv.Itoa(jl.attemptOf())+" (open at log end)", false)
	}

	// Metadata first: process and thread names, in pid/tid order.
	var meta []obs.TraceEvent
	meta = append(meta, obs.TraceEvent{
		Name: "process_name", Ph: "M", Pid: coordPid, Tid: 0,
		Args: map[string]any{"name": "coordinator"},
	})
	for _, w := range workerOrder {
		meta = append(meta, obs.TraceEvent{
			Name: "process_name", Ph: "M", Pid: workerPid[w], Tid: 0,
			Args: map[string]any{"name": "worker " + w},
		})
	}
	pids := append([]int64{coordPid}, func() []int64 {
		var ps []int64
		for _, w := range workerOrder {
			ps = append(ps, workerPid[w])
		}
		return ps
	}()...)
	for _, pid := range pids {
		for _, cell := range cellOrder {
			meta = append(meta, obs.TraceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: cellTid[cell],
				Args: map[string]any{"name": cell},
			})
		}
	}
	tl.Events = append(meta, body...)

	// The report: stragglers first (latest completion leads).
	tl.Report.Campaign = tl.Campaign
	tl.Report.Trace = tl.Trace
	tl.Report.MalformedLines = malformed
	if tMax > t0 {
		tl.Report.TotalSeconds = float64(tMax-t0) / 1e9
	}
	for _, cell := range cellOrder {
		ct := cells[cell]
		if ct == nil {
			ct = &CellTimeline{Cell: cell, StoreHit: true}
		}
		if ct.Attempts == 0 && len(ct.Workers) == 0 {
			// Present in the artifact order but never leased: the store
			// already had its block.
			ct.StoreHit = true
		}
		tl.Report.Cells = append(tl.Report.Cells, *ct)
	}
	sort.SliceStable(tl.Report.Cells, func(i, j int) bool {
		a, b := tl.Report.Cells[i], tl.Report.Cells[j]
		if a.EndSeconds != b.EndSeconds {
			return a.EndSeconds > b.EndSeconds
		}
		return a.Cell < b.Cell
	})
	if len(tl.Report.Cells) > 0 && tl.Report.Cells[0].EndSeconds > 0 {
		tl.Report.CriticalPath = tl.Report.Cells[0].Cell
	}
	return tl, nil
}

// EncodeTrace renders the timeline as Chrome trace-event JSON. The bytes
// are a pure function of the journal: reconstructing twice from the same
// journal is byte-identical.
func (tl *Timeline) EncodeTrace() ([]byte, error) {
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, tl.Events); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Render formats the straggler report for terminals.
func (r *TimelineReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s trace %s: %d cells, %.2fs total", r.Campaign, r.Trace, len(r.Cells), r.TotalSeconds)
	if r.Failovers > 0 {
		fmt.Fprintf(&b, ", %d coordinator takeover(s)", r.Failovers)
	}
	if r.MalformedLines > 0 {
		fmt.Fprintf(&b, ", %d malformed journal line(s) skipped", r.MalformedLines)
	}
	b.WriteByte('\n')
	if r.CriticalPath != "" {
		fmt.Fprintf(&b, "critical path: %s\n", r.CriticalPath)
	}
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s  %s\n",
		"cell", "end_s", "queue_s", "run_s", "lost_s", "attempts", "requeues", "workers")
	for _, c := range r.Cells {
		status := strings.Join(c.Workers, ",")
		if c.StoreHit {
			status = "(store hit)"
		}
		if c.Failed {
			status += " FAILED"
		}
		fmt.Fprintf(&b, "%-14s %8.2f %8.2f %8.2f %8.2f %8d %8d  %s\n",
			c.Cell, c.EndSeconds, c.QueueWaitSeconds, c.RunSeconds, c.LostSeconds,
			c.Attempts, c.Requeues, status)
	}
	return b.String()
}
