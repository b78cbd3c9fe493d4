package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// StateArea is a named directory of small JSON documents beside the block
// tree — the coordinator's durable campaign state lives in the "campaigns"
// area. Documents are written through the store's atomic temp+rename layer,
// so a crash mid-save never leaves a torn document: readers see the old
// version or the new one, nothing in between. Names are restricted to a
// filename-safe alphabet because they become file names verbatim.
type StateArea struct {
	dir string
	s   *Store
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
	return &StateArea{dir: dir, s: s}, nil
}

// validStateName guards area and document names: they become path
// components, so only a conservative alphabet is allowed.
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

func (a *StateArea) path(name string) (string, error) {
	if err := validStateName(name); err != nil {
		return "", err
	}
	return filepath.Join(a.dir, name+".json"), nil
}

// Save writes one document atomically (temp + rename).
func (a *StateArea) Save(name string, data []byte) error {
	path, err := a.path(name)
	if err != nil {
		return err
	}
	if err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("store: saving state %s: %w", name, err)
	}
	return nil
}

// Load reads one document; a missing document is (nil, nil), not an error.
func (a *StateArea) Load(name string) ([]byte, error) {
	path, err := a.path(name)
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: loading state %s: %w", name, err)
	}
	return buf, nil
}

// List returns the area's document names, sorted, so restart-time loads
// are order-deterministic.
func (a *StateArea) List() ([]string, error) {
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing state area: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names, nil
}

// AppendLog appends one line to the named append-only log, stored as
// <name>.jsonl beside the area's documents (the .jsonl suffix keeps logs
// out of List, which only returns .json documents). Unlike Save, appends
// are not atomic — a crash can tear the final line — so LoadLog drops an
// unterminated tail. The coordinator's durable per-campaign event
// journal lives here: it is what lets `szfarm timeline` reconstruct a
// campaign across restarts, failovers, and event-ring wraps.
func (a *StateArea) AppendLog(name string, line []byte) error {
	if err := validStateName(name); err != nil {
		return err
	}
	if err := appendLine(filepath.Join(a.dir, name+".jsonl"), line); err != nil {
		return fmt.Errorf("store: appending log %s: %w", name, err)
	}
	return nil
}

// LoadLog reads the named append-only log; a missing log is (nil, nil).
// A torn final line — the crash window AppendLog documents — is dropped,
// so callers always see whole lines.
func (a *StateArea) LoadLog(name string) ([]byte, error) {
	if err := validStateName(name); err != nil {
		return nil, err
	}
	buf, _, err := readLines(filepath.Join(a.dir, name+".jsonl"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: loading log %s: %w", name, err)
	}
	return buf, nil
}

// Delete removes one document; deleting a missing document is a no-op.
func (a *StateArea) Delete(name string) error {
	path, err := a.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting state %s: %w", name, err)
	}
	return nil
}
