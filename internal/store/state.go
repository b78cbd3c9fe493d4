package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// StateArea is a named directory of append-only JSONL logs beside the
// block tree — the coordinator's campaign journals live in the "campaigns"
// area. Names are restricted to a filename-safe alphabet because they
// become file names verbatim.
type StateArea struct {
	dir string
}

// StateArea returns (creating if needed) the named state area. The area
// lives at <store dir>/<name>/, beside blocks/.
func (s *Store) StateArea(name string) (*StateArea, error) {
	if err := validStateName(name); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: state area %s: %w", name, err)
	}
	return &StateArea{dir: dir}, nil
}

// validStateName guards area and log names: they become path components,
// so only a conservative alphabet is allowed.
func validStateName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty state name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("store: state name %q: %q not allowed", name, r)
		}
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("store: state name %q may not start with a dot", name)
	}
	return nil
}

// List returns the names of the area's logs, as AppendLog names them,
// sorted, so restart-time loads are order-deterministic.
func (a *StateArea) List() ([]string, error) {
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing state area: %w", err)
	}
	var names []string
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".jsonl")
		if e.IsDir() || !ok || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// AppendLog appends to the named append-only log, stored as <name>.jsonl.
// lines may hold several newline-terminated lines: they go out in one
// O_APPEND write, so they land together and after every earlier append.
// Appends are not atomic — a crash can tear the final line — so LoadLog
// drops an unterminated tail and RepairLog cuts it off before the next
// append. Nothing here calls fsync: an append survives the writer's death,
// not a power loss. The coordinator's per-campaign journal lives here: it
// is the campaign's only durable record (a restart replays it from its
// submit record), the event stream every coordinator serves by byte
// offset, and what lets `szfarm timeline` reconstruct a campaign across
// restarts and failovers.
func (a *StateArea) AppendLog(name string, lines []byte) error {
	if err := validStateName(name); err != nil {
		return err
	}
	if err := appendLine(filepath.Join(a.dir, name+".jsonl"), lines); err != nil {
		return fmt.Errorf("store: appending log %s: %w", name, err)
	}
	return nil
}

// LoadLog reads the named append-only log from byte offset from, which
// must be 0 or the end of one of its lines: an error wrapping ErrLogCursor
// rejects any other offset. A missing log reads as empty, (nil, nil) from
// 0. Only whole lines are returned — a torn final line, the crash window
// AppendLog documents, or an append still in progress is left out — so
// from plus the length returned is again a valid offset, and stays one
// while the log grows.
func (a *StateArea) LoadLog(name string, from int64) ([]byte, error) {
	if err := validStateName(name); err != nil {
		return nil, err
	}
	buf, _, err := readLines(filepath.Join(a.dir, name+".jsonl"), from)
	if os.IsNotExist(err) {
		if from != 0 {
			return nil, fmt.Errorf("store: loading log %s: %w: offset %d in a missing log", name, ErrLogCursor, from)
		}
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: loading log %s: %w", name, err)
	}
	return buf, nil
}

// RepairLog cuts a torn final line — the crash window AppendLog
// documents — off the named log, so the next append starts on a line
// boundary instead of gluing itself onto the fragment. A missing or
// intact log is left alone.
func (a *StateArea) RepairLog(name string) error {
	if err := validStateName(name); err != nil {
		return err
	}
	path := filepath.Join(a.dir, name+".jsonl")
	buf, torn, err := readLines(path, 0)
	if os.IsNotExist(err) || (err == nil && !torn) {
		return nil
	}
	if err == nil {
		err = os.Truncate(path, int64(len(buf)))
	}
	if err != nil {
		return fmt.Errorf("store: repairing log %s: %w", name, err)
	}
	return nil
}
