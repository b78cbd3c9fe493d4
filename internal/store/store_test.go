package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/spec"
)

// fakeResults builds a small deterministic result slice.
func fakeResults(n int) []experiment.RunResult {
	out := make([]experiment.RunResult, n)
	for i := range out {
		out[i] = experiment.RunResult{
			Seconds:      1.5 + float64(i)*0.25,
			Cycles:       uint64(1000 + i),
			Instructions: uint64(500 + i),
			Output:       uint64(i) * 7,
			Counters:     machine.Counters{},
		}
	}
	return out
}

// TestThroughputKeysKeepTheirEngine pins where the engine enters a key: a
// golden cell's key is the same under both engines, so one block serves
// either, while a throughput cell's key names its engine, so host times
// one engine measured are never replayed as the other's. A walk collection
// with throughput on, after a compiled one on the same store, computes its
// cell instead of hitting.
func TestThroughputKeysKeepTheirEngine(t *testing.T) {
	compiled := experiment.Config{Scale: 0.05}
	walk := experiment.Config{Scale: 0.05, Engine: interp.EngineWalk}
	golden := experiment.CellKey("astar", compiled, 5, 42)
	if walkKey := experiment.CellKey("astar", walk, 5, 42); walkKey != golden {
		t.Fatalf("golden keys differ across engines:\n  compiled: %s\n  walk:     %s", golden, walkKey)
	}
	if want := fmt.Sprintf("|gen=%d", experiment.SemanticsGeneration); !strings.HasSuffix(golden, want) || strings.Contains(golden, "engine") {
		t.Fatalf("golden key %q: want no engine and the suffix %q", golden, want)
	}
	compiled.Throughput, walk.Throughput = true, true
	tc, tw := experiment.CellKey("astar", compiled, 5, 42), experiment.CellKey("astar", walk, 5, 42)
	if tc == tw || tc == golden || tw == golden {
		t.Fatalf("throughput keys must differ from each other and the golden key:\n  compiled: %s\n  walk:     %s", tc, tw)
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ctx := experiment.WithCellStore(context.Background(), s.Cells())
	b, _ := spec.ByName("astar")
	for _, cfg := range []experiment.Config{compiled, walk} {
		cc, err := experiment.CompileBench(b, cfg)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if _, err := cc.Collect(ctx, 2, 42); err != nil {
			t.Fatalf("%s collect: %v", cfg.Engine, err)
		}
	}
	if hits, misses, puts := s.Stats(); hits != 0 || misses != 2 || puts != 2 {
		t.Fatalf("throughput collections under two engines: hits=%d misses=%d puts=%d, want 0/2/2", hits, misses, puts)
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	key := experiment.CellKey("astar", experiment.Config{Scale: 0.1}, 4, 99)
	want := fakeResults(4)
	if err := s.Put(key, 4, 99, want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got := s.Get(key, 4, 99)
	if got == nil {
		t.Fatalf("get after put missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip changed results:\n got %+v\nwant %+v", got, want)
	}
	// Wrong run range is a miss, not wrong data.
	if s.Get(key, 5, 99) != nil {
		t.Fatalf("get with wrong runs hit")
	}
	if s.Get(key, 4, 100) != nil {
		t.Fatalf("get with wrong seed base hit")
	}
	// Re-put of an existing key is a silent no-op.
	if err := s.Put(key, 4, 99, want); err != nil {
		t.Fatalf("idempotent put: %v", err)
	}
	hits, misses, puts := s.Stats()
	if hits != 1 || misses != 2 || puts != 1 {
		t.Fatalf("stats hits=%d misses=%d puts=%d, want 1/2/1", hits, misses, puts)
	}
}

func TestPutRejectsShortResults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put("k", 4, 0, fakeResults(3)); err == nil {
		t.Fatalf("put with 3 results for 4 runs succeeded")
	}
}

func TestCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	key := "astar|corrupt-case"
	if err := s.Put(key, 3, 7, fakeResults(3)); err != nil {
		t.Fatalf("put: %v", err)
	}
	path := s.blockPath(key)

	// Flip a payload byte: the integrity hash must catch it.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read block: %v", err)
	}
	evil := []byte(strings.Replace(string(buf), `"Seconds": 1.5`, `"Seconds": 9.5`, 1))
	if string(evil) == string(buf) {
		t.Fatalf("test did not find a payload byte to corrupt in %s", buf)
	}
	if err := os.WriteFile(path, evil, 0o644); err != nil {
		t.Fatalf("write corrupt block: %v", err)
	}
	if got := s.Get(key, 3, 7); got != nil {
		t.Fatalf("corrupt block served results: %+v", got)
	}

	// Truncation is a miss.
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if s.Get(key, 3, 7) != nil {
		t.Fatalf("truncated block served results")
	}

	// A block whose payload is internally consistent but stored under the
	// wrong slot (foreign key) is a miss.
	if err := s.Put("other|key", 3, 7, fakeResults(3)); err != nil {
		t.Fatalf("put other: %v", err)
	}
	foreign, err := os.ReadFile(s.blockPath("other|key"))
	if err != nil {
		t.Fatalf("read other: %v", err)
	}
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatalf("plant foreign block: %v", err)
	}
	if s.Get(key, 3, 7) != nil {
		t.Fatalf("foreign block served results")
	}
}

func TestIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	keys := []string{"astar|a", "bzip2|b", "mcf|c"}
	for i, k := range keys {
		if err := s.Put(k, 2, uint64(i), fakeResults(2)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	idx1, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		t.Fatalf("read index: %v", err)
	}

	// Delete the index; reopening must rebuild it byte-identically.
	if err := os.Remove(filepath.Join(dir, "index.jsonl")); err != nil {
		t.Fatalf("remove index: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Len() != len(keys) {
		t.Fatalf("rebuilt index has %d blocks, want %d", s2.Len(), len(keys))
	}
	idx2, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		t.Fatalf("read rebuilt index: %v", err)
	}
	if string(idx1) != string(idx2) {
		t.Fatalf("rebuilt index differs from incrementally maintained one:\n%s\nvs\n%s", idx1, idx2)
	}

	// A corrupt index file is rebuilt, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), []byte("{nope"), 0o644); err != nil {
		t.Fatalf("corrupt index: %v", err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("open with corrupt index: %v", err)
	}
	if s3.Len() != len(keys) {
		t.Fatalf("corrupt-index reopen found %d blocks, want %d", s3.Len(), len(keys))
	}
	for _, e := range s3.Index() {
		if e.Bench != benchOf(e.Key) {
			t.Fatalf("index entry %q has bench %q", e.Key, e.Bench)
		}
	}
}

// TestCellSourceAdapter runs a real collection through the store-backed
// CellSource twice: the second pass must be served from the store and
// produce identical samples, and the store must hold the block under the
// cell's key, which ends in the semantics generation.
func TestCellSourceAdapter(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b, _ := spec.ByName("astar")
	cfg := experiment.Config{Scale: 0.05}
	cc, err := experiment.CompileBench(b, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := experiment.WithCellStore(context.Background(), s.Cells())
	first, err := cc.Collect(ctx, 3, 11)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d blocks after collect, want 1", s.Len())
	}
	gen := fmt.Sprintf("|gen=%d", experiment.SemanticsGeneration)
	if e := s.Index()[0]; e.Key != experiment.CellKey("astar", cfg, 3, 11) || !strings.HasSuffix(e.Key, gen) {
		t.Fatalf("stored key %q: want the cell key, ending in %q", e.Key, gen)
	}
	second, err := cc.Collect(experiment.WithStoreOnly(ctx), 3, 11)
	if err != nil {
		t.Fatalf("store-only collect: %v", err)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatalf("store-served results differ from computed ones")
	}
	hits, _, _ := s.Stats()
	if hits != 1 {
		t.Fatalf("store hits=%d, want 1", hits)
	}
}

// prefilledStore opens a fresh store holding n one-run blocks under the keys
// fillKey(0..n-1).
func prefilledStore(b *testing.B, n int) *Store {
	b.Helper()
	s := openDir(b, b.TempDir())
	for i := 0; i < n; i++ {
		if err := s.Put(fillKey(i), 1, uint64(i), fakeResults(1)); err != nil {
			b.Fatalf("prefill: %v", err)
		}
	}
	return s
}

func fillKey(i int) string { return fmt.Sprintf("astar|fill-%d", i) }

// BenchmarkStorePut times one Put of a one-run block, the farm's per-cell
// store write, into stores pre-filled with 100 and 2000 blocks. Put appends
// one index line, so both sizes should cost the same.
func BenchmarkStorePut(b *testing.B) {
	results := fakeResults(1)
	for _, n := range []int{100, 2000} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			s := prefilledStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(fmt.Sprintf("astar|put-%d", i), 1, uint64(i), results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreGet times one verified lookup of a stored one-run block.
func BenchmarkStoreGet(b *testing.B) {
	const n = 100
	s := prefilledStore(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Get(fillKey(i%n), 1, uint64(i%n)) == nil {
			b.Fatal("miss on a stored block")
		}
	}
}
