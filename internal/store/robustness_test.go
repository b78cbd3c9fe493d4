package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/interp"
)

// TestRebuildQuarantinesBadBlocks seeds a store with good and damaged
// blocks, deletes the index, and reopens: the rebuild must quarantine every
// damaged block (moved aside, never deleted — a corrupt block is evidence)
// and index the good ones, not abort.
func TestRebuildQuarantinesBadBlocks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	good := []string{"astar|good-1", "bzip2|good-2"}
	for i, k := range good {
		if err := s.Put(k, 2, uint64(i), fakeResults(2)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	// Three damage modes: a truncated block (torn write), a corrupted
	// payload (bitrot caught by the integrity hash), and a foreign-schema
	// JSON file that is not a block at all.
	if err := s.Put("mcf|truncated", 2, 9, fakeResults(2)); err != nil {
		t.Fatalf("put truncated: %v", err)
	}
	truncPath := s.blockPath("mcf|truncated")
	buf, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(truncPath, buf[:len(buf)/3], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if err := s.Put("milc|bitrot", 2, 9, fakeResults(2)); err != nil {
		t.Fatalf("put bitrot: %v", err)
	}
	rotPath := s.blockPath("milc|bitrot")
	rot, err := os.ReadFile(rotPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	evil := strings.Replace(string(rot), `"Seconds": 1.5`, `"Seconds": 6.66`, 1)
	if evil == string(rot) {
		t.Fatalf("no payload byte found to corrupt")
	}
	if err := os.WriteFile(rotPath, []byte(evil), 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	foreignPath := filepath.Join(dir, "blocks", "zz", "not-a-block.json")
	if err := os.MkdirAll(filepath.Dir(foreignPath), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := os.WriteFile(foreignPath, []byte(`{"schema":999}`), 0o644); err != nil {
		t.Fatalf("write foreign: %v", err)
	}

	if err := os.Remove(filepath.Join(dir, "index.jsonl")); err != nil {
		t.Fatalf("remove index: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("rebuild open: %v", err)
	}
	if s2.Len() != len(good) {
		t.Fatalf("rebuilt index holds %d blocks, want %d", s2.Len(), len(good))
	}
	for i, k := range good {
		if s2.Get(k, 2, uint64(i)) == nil {
			t.Fatalf("good block %s lost in rebuild", k)
		}
	}
	for _, p := range []string{truncPath, rotPath, foreignPath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damaged block %s still in the block tree", p)
		}
		q := filepath.Join(dir, "quarantine", filepath.Base(p))
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("damaged block not quarantined at %s: %v", q, err)
		}
	}
}

// TestResumeReplacesDamagedBlock damages a stored block three ways. Each
// time Get must miss and move the block into quarantine, so that the Put
// of the recomputed cell lands and the next Get hits. A damaged block left
// in its slot would make Put's exists check keep it, and the cell would
// miss on every resume until a GC or index rebuild.
func TestResumeReplacesDamagedBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	key := experiment.CellKey("astar", experiment.Config{Scale: 0.1}, 3, 7)
	want := fakeResults(3)
	if err := s.Put(key, 3, 7, want); err != nil {
		t.Fatalf("put: %v", err)
	}
	path := s.blockPath(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read block: %v", err)
	}
	quarantined := filepath.Join(dir, "quarantine", filepath.Base(path))
	for _, damage := range []struct {
		name string
		buf  []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"not json", []byte("{not json")},
		{"foreign schema", []byte(`{"schema": 99, "key": "x"}`)},
	} {
		if err := os.WriteFile(path, damage.buf, 0o644); err != nil {
			t.Fatalf("%s: damage block: %v", damage.name, err)
		}
		if s.Get(key, 3, 7) != nil {
			t.Fatalf("%s block served results", damage.name)
		}
		if err := s.Put(key, 3, 7, want); err != nil {
			t.Fatalf("%s: put: %v", damage.name, err)
		}
		if got := s.Get(key, 3, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: get after put = %+v, want the stored results", damage.name, got)
		}
		if q, err := os.ReadFile(quarantined); err != nil || !bytes.Equal(q, damage.buf) {
			t.Fatalf("%s: quarantine holds %q (%v), want the damaged block", damage.name, q, err)
		}
	}
	if hits, misses, puts := s.Stats(); hits != 3 || misses != 3 || puts != 4 {
		t.Fatalf("stats hits=%d misses=%d puts=%d, want 3/3/4", hits, misses, puts)
	}
}

// gen1Key is a key as builds before generation 2 wrote it: the cell key
// extended with the engine tag and generation 1.
const gen1Key = "astar|scale=0.1|level=-O0|native|link=false|env=0|noise=0|maxsteps=0|profile=false|runs=2|seedbase=5|engine=compiled|gen=1"

// gcStoreFixture builds a store holding one fresh block and three stale
// ones (old generation, generation-1 engine-tagged key, pre-schema key).
func gcStoreFixture(t *testing.T) (*Store, string, []string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fresh := experiment.CellKey("astar", experiment.Config{Scale: 0.1}, 2, 5)
	stale := []string{
		fmt.Sprintf("astar|old|gen=%d", experiment.SemanticsGeneration-1),
		gen1Key,
		"astar|preschema",
	}
	for i, k := range append([]string{fresh}, stale...) {
		if err := s.Put(k, 2, uint64(i), fakeResults(2)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	return s, fresh, stale
}

// TestGCEvictsStaleBlocks checks eviction targets exactly the blocks the
// current build can never serve again, and that dry-run touches nothing.
func TestGCEvictsStaleBlocks(t *testing.T) {
	s, fresh, stale := gcStoreFixture(t)

	dry, err := s.GC(GCOptions{DryRun: true})
	if err != nil {
		t.Fatalf("dry-run gc: %v", err)
	}
	if dry.Scanned != 4 || dry.Kept != 1 || dry.Evicted != 3 || !dry.DryRun {
		t.Fatalf("dry-run report %+v, want scanned=4 kept=1 evicted=3", dry)
	}
	if s.Len() != 4 {
		t.Fatalf("dry run changed the store: %d blocks", s.Len())
	}
	for i, k := range stale {
		if s.Get(k, 2, uint64(i+1)) == nil {
			t.Fatalf("dry run evicted %s", k)
		}
	}

	rep, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if rep.Evicted != 3 || rep.Kept != 1 || rep.BytesReclaimed <= 0 {
		t.Fatalf("gc report %+v, want evicted=3 kept=1 and bytes reclaimed", rep)
	}
	if len(rep.EvictedSample) != 3 {
		t.Fatalf("evicted sample %v, want all 3 keys", rep.EvictedSample)
	}
	if s.Get(fresh, 2, 0) == nil {
		t.Fatalf("gc evicted the fresh block")
	}
	for i, k := range stale {
		if s.Get(k, 2, uint64(i+1)) != nil {
			t.Fatalf("stale block %s survived gc", k)
		}
	}
	// The rewritten index must match a from-scratch rebuild (no dangling
	// entries for evicted blocks).
	if s.Len() != 1 {
		t.Fatalf("store holds %d blocks after gc, want 1", s.Len())
	}
	again, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatalf("second gc: %v", err)
	}
	if again.Evicted != 0 || again.Kept != 1 {
		t.Fatalf("second gc report %+v, want nothing left to evict", again)
	}
}

// TestGCQuarantinesCorruptBlocks: a corrupt block found during GC is moved
// aside, not deleted, and counted.
func TestGCQuarantinesCorruptBlocks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	key := experiment.CellKey("astar", experiment.Config{Scale: 0.1}, 2, 5)
	if err := s.Put(key, 2, 5, fakeResults(2)); err != nil {
		t.Fatalf("put: %v", err)
	}
	path := s.blockPath(key)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	rep, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if rep.Quarantined != 1 || rep.Evicted != 0 {
		t.Fatalf("report %+v, want quarantined=1 evicted=0", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(path))); err != nil {
		t.Fatalf("corrupt block not quarantined: %v", err)
	}
}

// TestStaleKey pins the staleness predicate's edges.
func TestStaleKey(t *testing.T) {
	cases := []struct {
		key   string
		stale bool
	}{
		{experiment.CellKey("astar", experiment.Config{Scale: 0.1}, 2, 5), false},
		{experiment.CellKey("astar", experiment.Config{Scale: 0.1, Throughput: true, Engine: interp.EngineWalk}, 2, 5), false},
		{fmt.Sprintf("astar|x|gen=%d", experiment.SemanticsGeneration), false},
		{"astar|x", true},
		{fmt.Sprintf("astar|x|gen=%d", experiment.SemanticsGeneration+1), true},
		{"astar|x|gen=zebra", true},
		{gen1Key, true},
	}
	for _, tc := range cases {
		if stale, reason := staleKey(tc.key); stale != tc.stale {
			t.Errorf("staleKey(%q) = %v (%s), want %v", tc.key, stale, reason, tc.stale)
		}
	}
}

// TestStateArea covers the durable state area: the name guard that keeps
// areas inside the store, and an area's logs surviving a store reopen.
func TestStateArea(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	area, err := s.StateArea("campaigns")
	if err != nil {
		t.Fatalf("state area: %v", err)
	}
	if err := area.AppendLog("c0002.events", []byte(`{"v":3}`+"\n")); err != nil {
		t.Fatalf("append: %v", err)
	}
	for _, bad := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if _, err := s.StateArea(bad); err == nil {
			t.Errorf("StateArea(%q) accepted", bad)
		}
	}
	// The area must survive a store reopen (same directory layout).
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	area2, err := s2.StateArea("campaigns")
	if err != nil {
		t.Fatalf("reopen area: %v", err)
	}
	if buf, err := area2.LoadLog("c0002.events", 0); err != nil || string(buf) != `{"v":3}`+"\n" {
		t.Fatalf("log lost across reopen: (%q, %v)", buf, err)
	}
}

// TestStateAreaAppendLog covers the append-only event journal: ordered
// appends, torn-tail tolerance, List naming only .jsonl logs, and the name
// guard.
func TestStateAreaAppendLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	area, err := s.StateArea("campaigns")
	if err != nil {
		t.Fatalf("state area: %v", err)
	}
	if buf, err := area.LoadLog("c0001.events", 0); err != nil || buf != nil {
		t.Fatalf("load of missing log = (%q, %v), want (nil, nil)", buf, err)
	}
	if err := area.AppendLog("c0001.events", []byte(`{"n":1}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := area.AppendLog("c0001.events", []byte(`{"n":2}`+"\n")); err != nil {
		t.Fatalf("append with newline: %v", err)
	}
	buf, err := area.LoadLog("c0001.events", 0)
	if err != nil || string(buf) != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("load log = (%q, %v)", buf, err)
	}
	// A read from the end of a line returns the lines after it, nothing at
	// the log's end; any other offset is rejected.
	if buf, err := area.LoadLog("c0001.events", 8); err != nil || string(buf) != "{\"n\":2}\n" {
		t.Fatalf("load log from the end of line 1 = (%q, %v)", buf, err)
	}
	if buf, err := area.LoadLog("c0001.events", 16); err != nil || buf != nil {
		t.Fatalf("load log from its end = (%q, %v), want (nil, nil)", buf, err)
	}
	for _, from := range []int64{-1, 3, 15, 17} {
		if buf, err := area.LoadLog("c0001.events", from); !errors.Is(err, ErrLogCursor) {
			t.Errorf("load log from %d = (%q, %v), want ErrLogCursor", from, buf, err)
		}
	}
	if _, err := area.LoadLog("missing", 1); !errors.Is(err, ErrLogCursor) {
		t.Errorf("load of a missing log from 1: %v, want ErrLogCursor", err)
	}
	// List names the logs, and nothing else in the area.
	for _, other := range []string{"c0001.json", ".tmp-1.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, "campaigns", other), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := area.AppendLog("c0000.events", []byte("{}\n")); err != nil {
		t.Fatalf("append: %v", err)
	}
	names, err := area.List()
	if err != nil || len(names) != 2 || names[0] != "c0000.events" || names[1] != "c0001.events" {
		t.Fatalf("list = (%v, %v), want [c0000.events c0001.events]", names, err)
	}
	// A torn final line (crash mid-append) is dropped on read.
	if err := os.WriteFile(filepath.Join(dir, "campaigns", "c0001.events.jsonl"),
		[]byte("{\"n\":1}\n{\"n\":2}\n{\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf, err = area.LoadLog("c0001.events", 0)
	if err != nil || string(buf) != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("torn tail not dropped: (%q, %v)", buf, err)
	}
	if buf, err := area.LoadLog("c0001.events", 16); err != nil || buf != nil {
		t.Fatalf("load from before a torn tail = (%q, %v), want (nil, nil)", buf, err)
	}
	if _, err := area.LoadLog("c0001.events", 18); !errors.Is(err, ErrLogCursor) {
		t.Fatalf("load from inside a torn tail: %v, want ErrLogCursor", err)
	}
	// A log that is nothing but a torn line reads as empty.
	if err := os.WriteFile(filepath.Join(dir, "campaigns", "torn.jsonl"), []byte("{\"t"), 0o644); err != nil {
		t.Fatal(err)
	}
	if buf, err := area.LoadLog("torn", 0); err != nil || buf != nil {
		t.Fatalf("all-torn log = (%q, %v), want (nil, nil)", buf, err)
	}
	for _, bad := range []string{"", "../escape", "a/b", ".hidden"} {
		if err := area.AppendLog(bad, []byte("x")); err == nil {
			t.Errorf("AppendLog(%q) accepted", bad)
		}
		if _, err := area.LoadLog(bad, 0); err == nil {
			t.Errorf("LoadLog(%q) accepted", bad)
		}
	}
}
