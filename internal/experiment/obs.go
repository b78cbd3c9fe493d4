package experiment

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/obs"
)

// The engine's observability hooks read one process-wide scope. A scope
// rather than a context value because instrumentation reaches places with
// no context (the compile cache, the global progress shim), and because a
// campaign is one process-wide activity anyway. Everything degrades to
// no-ops when unset: obs metrics, loggers, and tracers are all
// nil-receiver safe.

var obsScope atomic.Pointer[obs.Scope]

// SetObs installs the observability scope the engine reports into:
// metrics for the pool / compile cache / retries / cell store, the
// structured run log, and the span tracer. nil (the default) disables all
// of it. Not for concurrent use with a running sweep.
func SetObs(s *obs.Scope) { obsScope.Store(s) }

// Obs returns the installed scope, or nil.
func Obs() *obs.Scope { return obsScope.Load() }

func obsMetrics() *obs.Registry {
	if s := obsScope.Load(); s != nil {
		return s.Metrics
	}
	return nil
}

func obsLog() *obs.Logger {
	if s := obsScope.Load(); s != nil {
		return s.Log
	}
	return nil
}

func obsTrace() *obs.Tracer {
	if s := obsScope.Load(); s != nil {
		return s.Trace
	}
	return nil
}

// obsF aliases obs.F for terse structured-log fields at call sites.
func obsF(key string, value any) obs.Field { return obs.F(key, value) }

// warnCell reports a non-fatal infrastructure problem with one cell.
// Warnings never fail a sweep. With an observability scope installed
// (SetObs) that carries a logger, the warning becomes a structured JSONL
// line at warn level with the cell label as a field; otherwise it falls
// back to the progress writer (stderr when none is set), prefixed with the
// label.
func warnCell(label, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if lg := obsLog(); lg != nil {
		lg.Warn(msg, obsF("cell", label))
		return
	}
	w := progressWriter()
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "[%s] %s\n", label, msg)
}

// ObsFiles configures InstallObs: each non-empty path enables one sink.
type ObsFiles struct {
	// Metrics is written a registry snapshot at Flush time. Golden by
	// default — counters and deterministic histograms only, byte-identical
	// across worker counts for a fixed seed. Full adds the wall-clock
	// histograms and gauges (real, but not reproducible).
	Metrics string
	Full    bool
	// Trace is written Chrome trace-event JSON of the engine spans
	// (compile/link/run/verify/cellstore) at Flush time. Wall-clock
	// timestamps: never golden.
	Trace string
	// Log receives the structured JSONL run log as the campaign executes,
	// at LogLevel ("info" when empty). Wall-clock stamped.
	Log      string
	LogLevel string
}

// InstallObs builds the scope a CLI campaign reports into, installs it
// process-wide (SetObs), and returns a flush function that writes the
// -metrics and -trace artifacts — call it once, after the campaign, even
// on the error path, so a failed run still leaves its telemetry behind.
// With no paths set the scope still collects (the cost is a few atomic
// increments) but nothing is written. The flush also closes the log file.
func InstallObs(files ObsFiles) (flush func() error, err error) {
	scope := obs.NewScope()
	// Validate the level even when no log file is requested: a typo in
	// -log-level should be an error, not silently ignored.
	level := obs.LevelInfo
	if files.LogLevel != "" {
		level, err = obs.ParseLevel(files.LogLevel)
		if err != nil {
			return nil, err
		}
	}
	var logFile *os.File
	if files.Log != "" {
		logFile, err = os.Create(files.Log)
		if err != nil {
			return nil, err
		}
		scope.Log = obs.NewLogger(logFile, level).WallClock()
	}
	SetObs(scope)
	return func() error {
		var firstErr error
		if files.Metrics != "" {
			buf, err := scope.Metrics.Snapshot(files.Full).Encode()
			if err == nil {
				err = os.WriteFile(files.Metrics, buf, 0o644)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if files.Trace != "" {
			f, err := os.Create(files.Trace)
			if err == nil {
				err = obs.WriteTraceJSON(f, scope.Trace.Events())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if logFile != nil {
			if err := logFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}
