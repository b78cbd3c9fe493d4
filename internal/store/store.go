// Package store is the content-addressed result store of the benchmarking
// farm: a directory of immutable sample blocks, one per experimental cell,
// addressed by the cell's key (experiment.CellKey). The key ends in the
// simulator's SemanticsGeneration, so a long-lived store shared across
// campaigns, users, and builds never serves results whose meaning has
// drifted. It leaves out the interpreter engine, because both engines
// collect identical samples: one block serves either engine. Only
// throughput cells, whose host times depend on the engine, name it. The
// same store is a local sweep's resume directory (`experiments
// -checkpoint`, `szgate run -store`).
//
// Determinism is what makes the store sound: a cell key fully determines
// its samples, so serving a stored block is indistinguishable from
// re-running the cell, and a campaign served entirely from the store merges
// to an artifact byte-identical to a computed one. The store therefore
// needs no invalidation policy beyond the key itself — a repeated question
// costs a cache hit, forever.
//
// Layout:
//
//	<dir>/blocks/<aa>/<sha256(key)>.json   one cell's sample block
//	<dir>/index.jsonl                      advisory log of all blocks
//	<dir>/quarantine/                      damaged blocks, moved aside
//	<dir>/coordination/                    fencing lease (Coordination)
//	<dir>/<name>/                          state areas, e.g. campaigns/
//
// Block files are written atomically (temp + rename) and carry an integrity
// hash over their canonical payload; a corrupt, truncated, mismatched, or
// foreign-schema block degrades to a miss, never to wrong data, and is
// quarantined so the recomputed cell's Put replaces it. The index
// is an advisory accelerator for humans and tooling (`szfarm status`, the
// CI artifact upload): lookups never trust it. It is an append-only log —
// a {"schema":2} header line, then one IndexEntry line per Put, the last
// line for a key winning — so a Put costs the same at any store size, and
// appends from several handles or processes never overwrite each other.
// Open replays the log and rebuilds it from the blocks on disk when it is
// missing or damaged; the rebuild and GC are the only whole-file writers.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// BlockSchema versions the block-file layout; blocks with another schema
// are ignored (a miss) rather than trusted.
const BlockSchema = 1

// IndexSchema versions the index log; its first line is
// {"schema":IndexSchema}.
const IndexSchema = 2

const (
	// indexName is the index log beside blocks/.
	indexName = "index.jsonl"
	// legacyIndexName is the schema-1 index older builds rewrote whole on
	// every Put. It is never read; the index rebuild deletes it.
	legacyIndexName = "index.json"
)

// Cells adapts the store to experiment.CellSource: the collection path's
// cell keys (experiment.CellKey strings) address the store as they are.
func (s *Store) Cells() experiment.CellSource { return cellAdapter{s} }

type cellAdapter struct{ s *Store }

func (a cellAdapter) Lookup(key string, runs int, seedBase uint64) []experiment.RunResult {
	return a.s.Get(key, runs, seedBase)
}

func (a cellAdapter) Store(_ context.Context, key string, runs int, seedBase uint64, results []experiment.RunResult) error {
	return a.s.Put(key, runs, seedBase, results)
}

// blockFile is the on-disk form of one cell. Payload is the canonical
// (compact json.Marshal) encoding of blockPayload; SHA256 is the hex digest
// of those canonical bytes, so any bit damage to the payload — or a
// hash-collision landing a foreign key in this file's slot — is detected on
// read.
type blockFile struct {
	Schema  int             `json:"schema"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

type blockPayload struct {
	Key      string                 `json:"key"`
	Bench    string                 `json:"bench"`
	Runs     int                    `json:"runs"`
	SeedBase uint64                 `json:"seed_base"`
	Results  []experiment.RunResult `json:"results"`
}

// IndexEntry describes one stored block in the advisory index; each is one
// line of the index log.
type IndexEntry struct {
	Key      string `json:"key"`
	Bench    string `json:"bench"`
	Runs     int    `json:"runs"`
	SeedBase uint64 `json:"seed_base"`
	SHA256   string `json:"sha256"`
	Size     int64  `json:"size"`
}

// indexHeader is the index log's first line.
var indexHeader = fmt.Sprintf(`{"schema":%d}`, IndexSchema)

// Store is an open result store. Methods are safe for concurrent use
// within one process, and several handles or processes may Put into one
// store at once: blocks land by atomic rename and index entries by
// O_APPEND writes of one line each, so on a local file system no writer
// loses another's entry. Only a GC or index rebuild, which replace the
// whole index file, can drop the entry of a Put that races them from
// another handle — never the block — which is one reason GC refuses a
// held coordination lease.
type Store struct {
	dir string

	mu     sync.Mutex
	index  map[string]IndexEntry // by key
	hits   int
	misses int
	puts   int

	// Obs, when non-nil, receives store counters (store.get.hits,
	// store.get.misses, store.put.blocks, store.put.bytes — all golden:
	// deterministic given the store contents and the query sequence) and
	// corruption warnings. Set it before concurrent use.
	Obs *obs.Scope
}

// Open opens (creating if needed) a store directory and loads or rebuilds
// its index.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blocks"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, index: map[string]IndexEntry{}}
	if err := s.loadIndex(); err != nil {
		// A missing or damaged index is rebuilt, not fatal: blocks are the
		// truth.
		if !os.IsNotExist(err) {
			s.warnf("%s: %v (rebuilding it from the blocks)", indexName, err)
		}
		if rerr := s.rebuildIndex(); rerr != nil {
			return nil, rerr
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats reports lookup and write activity since Open.
func (s *Store) Stats() (hits, misses, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.puts
}

// Index returns the indexed blocks sorted by key.
func (s *Store) Index() []IndexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexEntry, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (s *Store) metrics() *obs.Registry {
	if s.Obs != nil {
		return s.Obs.Metrics
	}
	return nil
}

func (s *Store) warnf(format string, args ...any) {
	if s.Obs != nil && s.Obs.Log != nil {
		s.Obs.Log.Warn(fmt.Sprintf(format, args...))
		return
	}
	fmt.Fprintf(os.Stderr, "store: %s\n", fmt.Sprintf(format, args...))
}

// keyHash is the content address of a key.
func keyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// blockPath maps a key to its block file. The leading byte pair shards the
// directory so a million-cell store does not put a million entries in one
// directory.
func (s *Store) blockPath(key string) string {
	h := keyHash(key)
	return filepath.Join(s.dir, "blocks", h[:2], h+".json")
}

// benchOf extracts the benchmark name from a cell key (its first |-field;
// the format is pinned by experiment.CellKey's doc contract).
func benchOf(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// Get returns the stored results for a cell, or nil when absent. Every
// failure mode — missing file, corrupt JSON, schema or integrity mismatch,
// foreign key in the slot, wrong run range — is a miss with a warning,
// never an error: re-collection is deterministic, so dropping a bad block
// is always safe. A block that fails verification or holds a foreign key
// is moved into quarantine, so the Put that follows the recompute writes
// a fresh block into its slot instead of finding the damaged one there.
func (s *Store) Get(key string, runs int, seedBase uint64) []experiment.RunResult {
	path := s.blockPath(key)
	miss := func() []experiment.RunResult {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		s.metrics().Counter("store.get.misses").Inc()
		return nil
	}
	e, results, err := readBlock(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return miss()
	case err != nil:
		s.warnf("%s: %v (quarantining; treated as a miss)", path, err)
		s.quarantine(path)
		return miss()
	case e.Key != key:
		// SHA-256 collision or a foreign file copied into the slot.
		s.warnf("%s: block holds key %q, wanted %q (quarantining; treated as a miss)", path, e.Key, key)
		s.quarantine(path)
		return miss()
	case e.Runs != runs || e.SeedBase != seedBase || len(results) != runs:
		// The block is intact and in its own slot; the query is what
		// disagrees with it.
		s.warnf("%s: run range mismatch (treated as a miss)", path)
		return miss()
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	s.metrics().Counter("store.get.hits").Inc()
	return results
}

// Put stores a completed cell atomically and appends its index entry.
// Writing an existing key is a no-op (blocks are immutable; determinism
// means the incumbent is as good as the newcomer). A damaged incumbent
// does not stay in the way: the Get that rejects it, which collection runs
// before computing a cell, moves it into quarantine.
func (s *Store) Put(key string, runs int, seedBase uint64, results []experiment.RunResult) error {
	if len(results) != runs {
		return fmt.Errorf("store: put %q: %d results for %d runs", key, len(results), runs)
	}
	path := s.blockPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	payload, err := json.Marshal(blockPayload{
		Key:      key,
		Bench:    benchOf(key),
		Runs:     runs,
		SeedBase: seedBase,
		Results:  results,
	})
	if err != nil {
		return fmt.Errorf("store: encode block: %w", err)
	}
	sum := hashHex(payload)
	buf, err := json.MarshalIndent(blockFile{
		Schema:  BlockSchema,
		SHA256:  sum,
		Payload: payload,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode block: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := atomicWrite(path, buf); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	e := IndexEntry{
		Key: key, Bench: benchOf(key), Runs: runs, SeedBase: seedBase,
		SHA256: sum, Size: int64(len(buf)),
	}
	s.mu.Lock()
	s.puts++
	s.index[key] = e
	s.mu.Unlock()
	s.metrics().Counter("store.put.blocks").Inc()
	s.metrics().Counter("store.put.bytes").Add(uint64(len(buf)))
	line, err := json.Marshal(e)
	if err == nil {
		err = appendLine(filepath.Join(s.dir, indexName), append(line, '\n'))
	}
	if err != nil {
		// The index is advisory; a failed update is a warning, not a lost
		// block.
		s.warnf("updating index: %v (blocks are unaffected)", err)
	}
	return nil
}

// canonicalPayload compacts a payload to the exact bytes Put hashed:
// json.Compact preserves the original token bytes, and Put wrote the
// payload from json.Marshal (already compact), so the indent that
// MarshalIndent applied to the enclosing file compacts back to the
// canonical form.
func canonicalPayload(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compacting payload: %w", err)
	}
	return buf.Bytes(), nil
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// atomicWrite writes buf to path via temp + rename so a crash mid-write
// never leaves a truncated block behind.
func atomicWrite(path string, buf []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// appendLine appends newline-terminated lines (usually one) to the log at
// path, creating the file if needed. The buffer goes out in one O_APPEND
// write, so appends from several handles or processes on a local file
// system land whole and one after another. A crash can still tear the
// final line, which readLines reports.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if len(line) == 0 || line[len(line)-1] != '\n' {
		line = append(append([]byte(nil), line...), '\n')
	}
	_, werr := f.Write(line)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ErrLogCursor rejects a log read from an offset that is neither 0 nor the
// end of one of the log's lines.
var ErrLogCursor = errors.New("log cursor is not at the end of a line")

// readLines reads the log at path from byte offset from up to its last
// newline; from must be 0 or follow one of the log's newlines. An
// unterminated tail — a crash or an append in progress — is cut off and
// reported as torn; no whole line reads as nil. The buffer is sized from
// the file's length, as os.ReadFile's is.
func readLines(path string, from int64) (lines []byte, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	if from < 0 || from > fi.Size() {
		return nil, false, fmt.Errorf("%w: offset %d in a %d-byte log", ErrLogCursor, from, fi.Size())
	}
	// Read from the byte before the cursor, which must be a newline.
	start := max(from-1, 0)
	buf := make([]byte, fi.Size()-start)
	n, err := f.ReadAt(buf, start)
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	buf = buf[:n]
	if from > 0 {
		if n == 0 || buf[0] != '\n' {
			return nil, false, fmt.Errorf("%w: offset %d", ErrLogCursor, from)
		}
		buf = buf[1:]
	}
	n = bytes.LastIndexByte(buf, '\n') + 1
	if n == 0 {
		return nil, len(buf) > 0, nil
	}
	return buf[:n], n < len(buf), nil
}

// loadIndex replays the index log into memory; when two lines share a key
// the last one wins. A missing file, a wrong header, a torn final line or
// an undecodable line is an error, on which Open rebuilds the index.
func (s *Store) loadIndex() error {
	buf, torn, err := readLines(filepath.Join(s.dir, indexName), 0)
	if err != nil {
		return err
	}
	if torn {
		return errors.New("torn final line")
	}
	head, rest, _ := bytes.Cut(buf, []byte{'\n'})
	if string(head) != indexHeader {
		return fmt.Errorf("header %q, this build reads %s", head, indexHeader)
	}
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var e IndexEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			return fmt.Errorf("undecodable entry %q", line)
		}
		s.index[e.Key] = e
	}
	return nil
}

// rebuildIndex rewrites the index from what is actually on disk,
// quarantining damaged blocks along the way.
func (s *Store) rebuildIndex() error {
	blocks, _, err := s.scanBlocks("index rebuild", false)
	if err != nil {
		return fmt.Errorf("store: rebuild index: %w", err)
	}
	return s.replaceIndex(blocks)
}

// scannedBlock is one intact block found by scanBlocks.
type scannedBlock struct {
	path string
	IndexEntry
}

// readBlock reads one block file and verifies its schema, canonical
// payload and integrity hash. Get, the index rebuild and GC all judge
// blocks here, so they never disagree about which blocks are damaged. The
// entry describes the block as the index would list it.
func readBlock(path string) (IndexEntry, []experiment.RunResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return IndexEntry{}, nil, err
	}
	var f blockFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return IndexEntry{}, nil, fmt.Errorf("corrupt block: %w", err)
	}
	if f.Schema != BlockSchema {
		return IndexEntry{}, nil, fmt.Errorf("block schema %d, this build reads %d", f.Schema, BlockSchema)
	}
	canon, err := canonicalPayload(f.Payload)
	if err != nil {
		return IndexEntry{}, nil, err
	}
	if got := hashHex(canon); got != f.SHA256 {
		return IndexEntry{}, nil, fmt.Errorf("integrity hash mismatch (stored %s, computed %s)", f.SHA256, got)
	}
	var p blockPayload
	if err := json.Unmarshal(canon, &p); err != nil {
		return IndexEntry{}, nil, fmt.Errorf("corrupt payload: %w", err)
	}
	return IndexEntry{
		Key: p.Key, Bench: p.Bench, Runs: p.Runs, SeedBase: p.SeedBase,
		SHA256: f.SHA256, Size: int64(len(buf)),
	}, p.Results, nil
}

// scanBlocks walks the block tree and verifies every block file with
// readBlock. It returns the intact blocks and the number of damaged ones,
// which it moves into <dir>/quarantine/ unless dryRun, so that a later Put
// of the same key is not blocked by Put's exists-check short-circuit. Only
// a failed directory walk is an error.
func (s *Store) scanBlocks(op string, dryRun bool) (blocks []scannedBlock, damaged int, err error) {
	var bad []string
	err = filepath.WalkDir(filepath.Join(s.dir, "blocks"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		e, _, err := readBlock(path)
		if err != nil {
			s.warnf("%s: %s: %v (quarantining)", op, path, err)
			bad = append(bad, path)
			return nil
		}
		blocks = append(blocks, scannedBlock{path: path, IndexEntry: e})
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if !dryRun {
		for _, path := range bad {
			s.quarantine(path)
		}
	}
	return blocks, len(bad), nil
}

// quarantine moves a damaged block file into <dir>/quarantine/, keeping
// its name. Failures degrade to a warning — the block is already excluded
// from the index, so quarantine is hygiene, not correctness.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.warnf("quarantining %s: %v (left in place)", path, err)
		return
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		s.warnf("quarantining %s: %v (left in place)", path, err)
		return
	}
	s.metrics().Counter("store.quarantined.blocks").Inc()
}

// replaceIndex makes the scanned blocks the whole index, in memory and on
// disk. The file is rewritten atomically, sorted by key so equal stores
// produce byte-identical indexes, and a schema-1 index.json left by an
// older build is deleted. Only rebuildIndex and GC call it; Put appends.
func (s *Store) replaceIndex(blocks []scannedBlock) error {
	index := make(map[string]IndexEntry, len(blocks))
	for _, b := range blocks {
		index[b.Key] = b.IndexEntry
	}
	s.mu.Lock()
	s.index = index
	s.mu.Unlock()
	buf := []byte(indexHeader + "\n")
	for _, e := range s.Index() {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := atomicWrite(filepath.Join(s.dir, indexName), buf); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(s.dir, legacyIndexName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
