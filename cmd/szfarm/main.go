// Command szfarm is the distributed benchmarking farm: a coordinator that
// shards a campaign's cells across worker processes over HTTP/JSON, backed
// by the same content-addressed result store `szgate run -store` writes.
// Every completed cell lands in the store, so a cell is computed once ever
// — across workers, campaigns, and resubmissions — and a repeated campaign
// is served entirely from store hits.
//
// Usage:
//
//	szfarm serve    -store dir [-addr :8713] [-identity name] [-coord-ttl 15s]
//	                [-lease-ttl 30s] [-max-attempts 3] [-max-pending n]
//	                [-tenant-weights t=w,...] [-tenant-max-inflight n]
//	                [-tenant-max-pending n]
//	szfarm work     -server url[,url...] [-name id] [-j n] [-poll d] [-idle-exit]
//	                [-metrics-addr :9713]
//	szfarm submit   -server url[,url...] [-runs n] [-scale f] [-seed n]
//	                [-level 0..3] [-stabilize] [-noise f]
//	                [-bench name[,name...]] [-cxx]
//	                [-commit sha] [-tenant name] [-wait [-o artifact.json]]
//	szfarm status   -server url[,url...] [-id cNNNN] [-json]
//	szfarm events   -server url[,url...] -id cNNNN [-follow]
//	szfarm artifact -server url -id cNNNN [-o artifact.json] [-provenance]
//	szfarm timeline (-server url[,url...] | -store dir) -id cNNNN [-o trace.json]
//	szfarm gc       -store dir [-dry-run] [-force] [-json]
//
// Observability: every coordinator (active or standby) serves Prometheus
// text metrics on GET /metrics, and workers do the same on -metrics-addr.
// Each campaign carries a trace ID minted at submission and journaled with
// the campaign state, so one distributed trace spans lease grant → compute
// → completion even across a coordinator failover; leases and completions
// carry X-Sz-Trace/X-Sz-Span headers. `szfarm timeline` reconstructs a
// campaign's durable event journal into a Chrome trace (load it in
// Perfetto) plus a critical-path/straggler report, and `szfarm artifact
// -provenance` decorates the merged artifact with each cell's measurement
// pedigree — a non-golden overlay that strips back to the golden bytes.
//
// Campaign artifacts are assembled by the ordinary collection path in
// store-only mode, so they are byte-identical to what `szgate run` with the
// same flags would have written — no matter how many workers computed the
// cells or how many came from prior store hits. A cell's key leaves the
// interpreter engine out, so one block serves either engine; blocks older
// builds wrote under engine-tagged keys are recomputed once, and `szfarm
// gc` reclaims them.
//
// The coordinator journals every campaign transition to an append-only log
// under <store>/campaigns/, the campaign's only durable record: a crashed
// (even kill -9'd) coordinator restarted against the same -store rebuilds
// each campaign from its log and resumes the open ones with no lost or
// double-counted cells. A log written by a build that also kept an
// <id>.json snapshot has no submit record, so its campaign is skipped with
// a warning; resubmit the spec, and its finished cells are store hits.
// `szfarm events` reads that log by byte cursor, so a follower resumes
// across a restart or a failover. Two serve processes may share one -store for high availability:
// they race for the store's coordination lease, exactly one is active at a
// time, and a killed active is replaced by its standby within ~2× the
// -coord-ttl — clients and workers given the comma-separated server list
// fail over automatically, and the deposed process's late writes are
// rejected by its stale fencing epoch. Chaos jobs arm protocol fault
// injection through the environment: SZ_FAULTS="site:kind[:nth[:repeat]];..."
// (sites net.*, coord.*, lease.*; kinds drop, dup, 5xx, torn, error,
// delay=<dur>), seeded by SZ_FAULT_SEED.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := armFaults(); err != nil {
		fmt.Fprintf(os.Stderr, "szfarm: %v\n", err)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "work":
		err = cmdWork(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "events":
		err = cmdEvents(os.Args[2:])
	case "artifact":
		err = cmdArtifact(os.Args[2:])
	case "timeline":
		err = cmdTimeline(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "szfarm: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "szfarm: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `szfarm — distributed benchmarking farm over a content-addressed store

  szfarm serve     run the coordinator (owns the result store)
  szfarm work      run a worker against a coordinator
  szfarm submit    submit a campaign; -wait fetches the merged artifact
  szfarm status    show campaign progress
  szfarm events    print a campaign's JSONL event journal
  szfarm artifact  fetch a completed campaign's merged artifact
  szfarm timeline  reconstruct a campaign's execution timeline (Chrome trace)
  szfarm gc        evict stale blocks from a result store

Run 'szfarm <subcommand> -h' for flags. Set SZ_FAULTS (and SZ_FAULT_SEED)
to arm protocol fault injection for chaos testing.
`)
}

// armFaults activates the process-wide fault-injection plan described by
// $SZ_FAULTS ("site:kind[:nth[:repeat]];...", see internal/faultinject), so
// chaos jobs can arm unmodified szfarm binaries through the environment.
func armFaults() error {
	planSpec := os.Getenv("SZ_FAULTS")
	if planSpec == "" {
		return nil
	}
	faults, err := faultinject.ParseFaults(planSpec)
	if err != nil {
		return fmt.Errorf("SZ_FAULTS: %w", err)
	}
	seed := uint64(1)
	if s := os.Getenv("SZ_FAULT_SEED"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("SZ_FAULT_SEED: %w", err)
		}
		seed = n
	}
	faultinject.Activate(seed, faults...)
	fmt.Fprintf(os.Stderr, "szfarm: fault injection armed: %s (seed %d)\n", planSpec, seed)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("szfarm serve", flag.ExitOnError)
	storeDir := fs.String("store", "", "result store directory (required; created if missing)")
	addr := fs.String("addr", ":8713", "listen address")
	identity := fs.String("identity", "", "coordinator identity in the coordination lease and logs (default: hostname:addr)")
	coordTTL := fs.Duration("coord-ttl", 15*time.Second, "coordination-lease TTL; a standby takes over this long after the active's last heartbeat")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease expiry without a heartbeat; dead workers' cells requeue after this")
	maxAttempts := fs.Int("max-attempts", 3, "lease attempts per cell before the campaign fails")
	maxPending := fs.Int("max-pending", 0, "open-cell bound before submissions shed with 429 (0 = default 10000, negative disables)")
	tenantWeights := fs.String("tenant-weights", "", "weighted-round-robin tenant shares, e.g. ci=5,default=1")
	tenantMaxInflight := fs.Int("tenant-max-inflight", 0, "max leased cells per tenant (0 = unlimited)")
	tenantMaxPending := fs.Int("tenant-max-pending", 0, "open-cell bound per tenant before that tenant's submissions shed with 429 (0 = unlimited)")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("serve needs -store")
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		return err
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	if *identity == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "szfarm"
		}
		*identity = host + *addr
	}
	scope := obs.NewScope()
	scope.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)
	// Store counters (hits, writes, GC) share the coordinator's registry so
	// one /metrics scrape covers the whole process.
	st.Obs = scope
	ha, err := campaign.NewHAServer(campaign.HAOptions{
		Coordinator: campaign.CoordinatorOptions{
			Store: st, LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts,
			MaxPendingCells: *maxPending, Obs: scope,
			TenantWeights:        weights,
			MaxInflightPerTenant: *tenantMaxInflight,
			MaxPendingPerTenant:  *tenantMaxPending,
		},
		Identity: *identity,
		CoordTTL: *coordTTL,
		Obs:      scope,
	})
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: *addr, Handler: ha}
	// Unlike a collection sweep, the coordinator has no in-process compute
	// to drain — workers post in-flight completions against the store, and
	// everything else is recoverable — so the first signal shuts down. The
	// election loop releases the coordination lease on the way out, letting
	// a standby promote without waiting out the TTL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	electionDone := make(chan error, 1)
	go func() { electionDone <- ha.Run(ctx) }()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	fmt.Fprintf(os.Stderr, "szfarm: %s serving on %s, store %s (%d blocks), coordination lease ttl %s\n",
		*identity, *addr, *storeDir, st.Len(), *coordTTL)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		stop()
		<-electionDone
		return err
	}
	return <-electionDone
}

// parseTenantWeights reads "tenant=weight,..." into the scheduler's weight
// map.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant-weights: %q is not tenant=weight", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant-weights: %q needs a positive integer weight", pair)
		}
		weights[name] = w
	}
	return weights, nil
}

func cmdWork(args []string) error {
	fs := flag.NewFlagSet("szfarm work", flag.ExitOnError)
	server := fs.String("server", "", "coordinator base URL(s), comma-separated for failover (required)")
	name := fs.String("name", "", "worker name in leases and events (default: hostname)")
	jobs := fs.Int("j", 0, "parallel runs within a cell (0 = $SZ_PARALLEL or GOMAXPROCS)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle poll interval")
	idleExit := fs.Bool("idle-exit", false, "exit when the farm reports no remaining work")
	metricsAddr := fs.String("metrics-addr", "", "serve worker metrics (GET /metrics, Prometheus text) on this address")
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("work needs -server")
	}
	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		} else {
			*name = "worker"
		}
	}
	experiment.SetParallelism(*jobs)
	scope := obs.NewScope()
	scope.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)
	// The engine's counters (compile cache, replays, kept traces) share the
	// worker's registry. Only the registry: a tracer keeps every span for
	// the life of the process, and the engine's per-cell log lines would
	// double the worker's own.
	experiment.SetObs(&obs.Scope{Metrics: scope.Metrics})
	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", scope.Metrics.PromHandler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"ok": true, "role": "worker"}`)
		})
		go func() {
			// Best-effort: a worker whose metrics port is taken keeps
			// computing; the scrape is lost, not the work.
			if merr := http.ListenAndServe(*metricsAddr, mux); merr != nil {
				scope.Log.Warn("worker metrics listener failed", obs.F("addr", *metricsAddr), obs.F("err", merr.Error()))
			}
		}()
		fmt.Fprintf(os.Stderr, "szfarm: worker metrics on %s\n", *metricsAddr)
	}
	w := &campaign.Worker{
		Client:   campaign.NewClient(*server),
		Name:     *name,
		Poll:     *poll,
		IdleExit: *idleExit,
		Obs:      scope,
	}
	err := w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		return nil // clean signal-driven exit
	}
	return err
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("szfarm submit", flag.ExitOnError)
	server := fs.String("server", "", "coordinator base URL(s), comma-separated for failover (required)")
	runs := fs.Int("runs", 20, "runs per benchmark")
	scale := fs.Float64("scale", 1.0, "workload scale")
	seed := fs.Uint64("seed", 2013, "master seed")
	level := fs.Int("level", 2, "optimization level (0-3)")
	stabilize := fs.Bool("stabilize", false, "run under full STABILIZER randomization")
	noise := fs.Float64("noise", 0, "relative system-noise sigma (0 = default, negative disables)")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all)")
	cxx := fs.Bool("cxx", false, "include the five C++ benchmarks")
	commit := fs.String("commit", "", "commit label for the merged artifact")
	tenant := fs.String("tenant", "", "tenant label for fair scheduling and quotas (default: \"default\")")
	wait := fs.Bool("wait", false, "poll until the campaign is done")
	out := fs.String("o", "", "with -wait: write the merged artifact here (- for stdout)")
	poll := fs.Duration("poll", 500*time.Millisecond, "-wait poll interval")
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("submit needs -server")
	}
	optLevel, err := compiler.ParseLevel(*level)
	if err != nil {
		return err
	}
	cfg := experiment.Config{Scale: *scale, Level: optLevel, Noise: *noise}
	if *stabilize {
		cfg.Stabilizer = &core.Options{Code: true, Stack: true, Heap: true, Rerandomize: true, Interval: 25_000}
	}
	names, err := pickNames(*benches, *cxx)
	if err != nil {
		return err
	}
	camp := campaign.Spec{
		Benchmarks: names,
		Config:     cfg,
		Runs:       *runs,
		Seed:       *seed,
		Commit:     *commit,
		Tenant:     *tenant,
	}
	if err := camp.Validate(); err != nil {
		return err
	}

	client := campaign.NewClient(*server)
	ctx, stopSig := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stopSig()
	resp, err := client.Submit(ctx, camp)
	if err != nil {
		return err
	}
	// Machine-greppable: the CI smoke job asserts store_hits == cells on
	// resubmission; the trailing coordinator identity and fencing epoch let
	// chaos-test logs attribute the exchange across a failover.
	fmt.Printf("szfarm: submitted %s cells=%d store_hits=%d%s\n", resp.ID, resp.Cells, resp.StoreHits, observedSuffix(client))
	if !*wait {
		return nil
	}
	st, err := client.WaitDone(ctx, resp.ID, *poll)
	if err != nil {
		return err
	}
	if st.State != campaign.StateDone {
		return fmt.Errorf("campaign %s %s: %s", resp.ID, st.State, st.Error)
	}
	fmt.Printf("szfarm: campaign %s done (%d cells, %d store hits)%s\n", resp.ID, st.Cells, st.StoreHits, observedSuffix(client))
	if *out == "" {
		return nil
	}
	buf, err := client.Artifact(ctx, resp.ID)
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "szfarm: wrote %s\n", *out)
	return nil
}

// observedSuffix formats the coordinator identity and fencing epoch the
// client last observed, for appending to human/grep output lines.
func observedSuffix(client *campaign.Client) string {
	holder, epoch := client.ObservedCoordinator()
	if holder == "" {
		return ""
	}
	return fmt.Sprintf(" coordinator=%s epoch=%d", holder, epoch)
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("szfarm status", flag.ExitOnError)
	server := fs.String("server", "", "coordinator base URL(s), comma-separated (required)")
	id := fs.String("id", "", "campaign id (default: summarize all)")
	jsonOut := fs.Bool("json", false, "print a JSON document: coordinator identity/epoch, scaling signals, campaigns")
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("status needs -server")
	}
	client := campaign.NewClient(*server)
	ctx := context.Background()
	if *jsonOut {
		return statusJSON(ctx, client, *id)
	}
	if *id != "" {
		st, err := client.Status(ctx, *id)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s  %d/%d done (%d store hits, %d pending, %d leased, %d failed)\n",
			st.ID, st.State, st.Done, st.Cells, st.StoreHits, st.Pending, st.Leased, st.Failed)
		for _, cell := range st.Detail {
			line := fmt.Sprintf("  %-12s %-8s attempts=%d", cell.Bench, cell.State, cell.Attempts)
			if cell.StoreHit {
				line += " (store hit)"
			}
			if cell.Error != "" {
				line += "  err: " + cell.Error
			}
			fmt.Println(line)
		}
		if st.Error != "" {
			fmt.Printf("  error: %s\n", st.Error)
		}
		return nil
	}
	all, err := client.StatusAll(ctx)
	if err != nil {
		return err
	}
	if len(all) == 0 {
		fmt.Println("no campaigns")
		return nil
	}
	for _, st := range all {
		fmt.Printf("%s: %-7s %d/%d done (%d store hits)\n", st.ID, st.State, st.Done, st.Cells, st.StoreHits)
	}
	// The operator's queue view: overall load plus per-tenant depths, from
	// the same signals an autoscaler reads via -json.
	if rep, serr := client.Scaling(ctx); serr == nil {
		fmt.Printf("farm: backlog=%d inflight=%d workers=%d lease_utilization=%.2f completions_per_s=%.2f",
			rep.Backlog, rep.Inflight, rep.Workers, rep.LeaseUtilization, rep.CompletionsPerSecond)
		if rep.EstimatedDrainSeconds > 0 {
			fmt.Printf(" est_drain_s=%.1f", rep.EstimatedDrainSeconds)
		}
		fmt.Println()
		for _, ts := range rep.Tenants {
			fmt.Printf("  tenant %-12s weight=%d pending=%d inflight=%d campaigns=%d\n",
				ts.Tenant, ts.Weight, ts.Pending, ts.Inflight, ts.Campaigns)
		}
	}
	if suffix := observedSuffix(client); suffix != "" {
		fmt.Printf("szfarm:%s\n", suffix)
	}
	return nil
}

// statusJSON emits one machine-readable document: who answered (identity +
// fencing epoch), the autoscaling signals, and the campaign statuses — the
// `szfarm status -json` surface autoscalers and chaos-test logs consume.
func statusJSON(ctx context.Context, client *campaign.Client, id string) error {
	doc := struct {
		Coordinator campaign.CoordinatorInfo `json:"coordinator"`
		Scaling     campaign.ScalingReport   `json:"scaling"`
		Campaigns   []campaign.Status        `json:"campaigns"`
	}{}
	var err error
	if id != "" {
		var st campaign.Status
		if st, err = client.Status(ctx, id); err == nil {
			doc.Campaigns = []campaign.Status{st}
		}
	} else {
		doc.Campaigns, err = client.StatusAll(ctx)
	}
	if err != nil {
		return err
	}
	if doc.Scaling, err = client.Scaling(ctx); err != nil {
		return err
	}
	if doc.Coordinator, err = client.Coordinator(ctx); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("szfarm events", flag.ExitOnError)
	server := fs.String("server", "", "coordinator base URL(s), comma-separated for failover (required)")
	id := fs.String("id", "", "campaign id (required)")
	follow := fs.Bool("follow", false, "poll until the campaign is terminal")
	fs.Parse(args)
	if *server == "" || *id == "" {
		return fmt.Errorf("events needs -server and -id")
	}
	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()
	err := campaign.NewClient(*server).Events(ctx, *id, *follow, os.Stdout)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

func cmdArtifact(args []string) error {
	fs := flag.NewFlagSet("szfarm artifact", flag.ExitOnError)
	server := fs.String("server", "", "coordinator base URL (required)")
	id := fs.String("id", "", "campaign id (required)")
	out := fs.String("o", "-", "output path (- for stdout)")
	provenance := fs.Bool("provenance", false, "attach per-cell measurement pedigree (non-golden; szgate show prints it)")
	fs.Parse(args)
	if *server == "" || *id == "" {
		return fmt.Errorf("artifact needs -server and -id")
	}
	ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
	defer stop()
	client := campaign.NewClient(*server)
	fetch := client.Artifact
	if *provenance {
		fetch = client.ArtifactProvenance
	}
	buf, err := fetch(ctx, *id)
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "szfarm: wrote %s\n", *out)
	return nil
}

// cmdTimeline reconstructs a campaign's execution timeline from its durable
// event journal (<store>/campaigns/<id>.events.jsonl — every line across
// restarts and failovers), read from the -store directory itself or as a
// coordinator on it serves the journal; both read the same bytes. The
// trace is validated before it is written, so a file that lands on disk is
// guaranteed to load in Perfetto/chrome://tracing.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("szfarm timeline", flag.ExitOnError)
	server := fs.String("server", "", "coordinator base URL(s), comma-separated (reads the journal it serves)")
	storeDir := fs.String("store", "", "store directory (reads the journal on disk)")
	id := fs.String("id", "", "campaign id (required)")
	out := fs.String("o", "", "write the Chrome trace JSON here (- for stdout)")
	report := fs.Bool("report", true, "print the critical-path/straggler report")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	fs.Parse(args)
	if *id == "" || (*server == "") == (*storeDir == "") {
		return fmt.Errorf("timeline needs -id and exactly one of -server or -store")
	}
	var journal []byte
	var err error
	if *storeDir != "" {
		st, serr := store.Open(*storeDir)
		if serr != nil {
			return serr
		}
		area, serr := st.StateArea("campaigns")
		if serr != nil {
			return serr
		}
		if journal, err = area.LoadLog(*id+".events", 0); err != nil {
			return err
		}
		if journal == nil {
			return fmt.Errorf("no event journal for campaign %s in %s", *id, *storeDir)
		}
	} else {
		var buf bytes.Buffer
		ctx, stop := experiment.NotifyShutdown(context.Background(), os.Stderr)
		defer stop()
		if err = campaign.NewClient(*server).Events(ctx, *id, false, &buf); err != nil {
			return err
		}
		journal = buf.Bytes()
	}
	tl, err := campaign.BuildTimeline(journal, *id)
	if err != nil {
		return err
	}
	trace, err := tl.EncodeTrace()
	if err != nil {
		return err
	}
	if err := obs.ValidateTrace(trace); err != nil {
		return fmt.Errorf("reconstructed trace failed validation: %w", err)
	}
	switch *out {
	case "":
	case "-":
		if _, err := os.Stdout.Write(trace); err != nil {
			return err
		}
	default:
		if err := os.WriteFile(*out, trace, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "szfarm: wrote %s (%d trace events)\n", *out, len(tl.Events))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tl.Report)
	}
	if *report && *out != "-" {
		fmt.Print(tl.Report.Render())
	}
	return nil
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("szfarm gc", flag.ExitOnError)
	storeDir := fs.String("store", "", "result store directory (required)")
	dryRun := fs.Bool("dry-run", false, "report what would be evicted without touching the store")
	force := fs.Bool("force", false, "run even when the store's coordination lease is held by a live coordinator")
	sample := fs.Int("sample", 10, "evicted-key sample size in the report (negative disables)")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("gc needs -store")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	rep, err := st.GC(store.GCOptions{DryRun: *dryRun, SampleKeys: *sample, Force: *force})
	if err != nil {
		var held *store.LeaseHeldError
		if errors.As(err, &held) {
			return fmt.Errorf("%w\n(use -force to override, or stop the coordinator first)", err)
		}
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	mode := ""
	if rep.DryRun {
		mode = " (dry run)"
	}
	fmt.Printf("szfarm: gc%s: scanned=%d kept=%d evicted=%d quarantined=%d bytes_reclaimed=%d\n",
		mode, rep.Scanned, rep.Kept, rep.Evicted, rep.Quarantined, rep.BytesReclaimed)
	for _, key := range rep.EvictedSample {
		fmt.Printf("  evicted: %s\n", key)
	}
	return nil
}

// pickNames resolves -bench/-cxx into benchmark names, rejecting unknown
// ones with the valid set.
func pickNames(names string, cxx bool) ([]string, error) {
	suite := spec.Suite()
	if cxx {
		suite = spec.FullSuite()
	}
	if names == "" {
		return campaign.SuiteNames(suite), nil
	}
	valid := map[string]bool{}
	for _, b := range suite {
		valid[b.Name] = true
	}
	var out []string
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if !valid[n] {
			return nil, fmt.Errorf("unknown benchmark %q; valid: %s", n, strings.Join(campaign.SuiteNames(suite), ", "))
		}
		out = append(out, n)
	}
	return out, nil
}
