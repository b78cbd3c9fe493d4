package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/experiment"
)

func openDir(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func putKey(t testing.TB, s *Store, key string, seedBase uint64) {
	t.Helper()
	if err := s.Put(key, 2, seedBase, fakeResults(2)); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

// blockFiles counts the block files on disk.
func blockFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "blocks"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatalf("walking blocks: %v", err)
	}
	return n
}

// requireFullIndex reopens the store and checks that it indexes every block
// on disk, and that there are want of them.
func requireFullIndex(t *testing.T, dir string, want int) {
	t.Helper()
	if n := blockFiles(t, dir); n != want {
		t.Fatalf("%d block files on disk, want %d", n, want)
	}
	if n := openDir(t, dir).Len(); n != want {
		t.Fatalf("reopened store indexes %d of %d blocks on disk", n, want)
	}
}

// TestIndexAcrossHandles is the failover sequence: a standby opens the
// store when its process starts, the active keeps writing, and after
// promotion the standby writes too. No handle may drop another's entries.
func TestIndexAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	active := openDir(t, dir)
	standby := openDir(t, dir)
	putKey(t, active, "astar|a1", 1)
	putKey(t, active, "astar|a2", 2)
	putKey(t, standby, "bzip2|b1", 3)
	requireFullIndex(t, dir, 3)
}

// TestIndexConcurrentPuts runs four goroutines over two handles of one
// store; run it under -race.
func TestIndexConcurrentPuts(t *testing.T) {
	const goroutines, puts = 4, 8
	dir := t.TempDir()
	handles := []*Store{openDir(t, dir), openDir(t, dir)}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := handles[g%len(handles)]
			for i := 0; i < puts; i++ {
				if err := s.Put(fmt.Sprintf("astar|g%d-%d", g, i), 2, uint64(i), fakeResults(2)); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	requireFullIndex(t, dir, goroutines*puts)
	if n := handles[0].Len() + handles[1].Len(); n != goroutines*puts {
		t.Fatalf("handles hold %d entries in memory, want %d", n, goroutines*puts)
	}
}

// TestGCIndexesBlocksOfOtherHandles: a handle opened before another handle
// wrote must not GC the other handle's blocks out of the index.
func TestGCIndexesBlocksOfOtherHandles(t *testing.T) {
	dir := t.TempDir()
	collector := openDir(t, dir)
	writer := openDir(t, dir)
	for i := uint64(0); i < 2; i++ {
		putKey(t, writer, KeyFor("astar", experiment.Config{Scale: 0.1}, 2, i), i)
	}
	rep, err := collector.GC(GCOptions{Force: true})
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if rep.Kept != 2 || rep.Evicted != 0 {
		t.Fatalf("gc report %+v, want kept=2 evicted=0", rep)
	}
	if collector.Len() != 2 {
		t.Fatalf("collecting handle indexes %d blocks after gc, want 2", collector.Len())
	}
	requireFullIndex(t, dir, 2)
}

// TestIndexRecovery damages the index log in each way Open must detect and
// checks that the reopened store rebuilt it from the blocks on disk.
func TestIndexRecovery(t *testing.T) {
	keys := []string{"astar|a", "bzip2|b", "mcf|c"}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, index []byte)
	}{
		{"torn final line", func(t *testing.T, dir string, index []byte) {
			writeFile(t, filepath.Join(dir, indexName), append(index, `{"key":"milc|torn","be`...))
		}},
		{"garbage middle line", func(t *testing.T, dir string, index []byte) {
			lines := bytes.SplitAfter(index, []byte{'\n'}) // header, three entries, ""
			lines = append(lines[:2], append([][]byte{[]byte("{garbage\n")}, lines[2:]...)...)
			writeFile(t, filepath.Join(dir, indexName), bytes.Join(lines, nil))
		}},
		{"only a schema-1 index.json", func(t *testing.T, dir string, _ []byte) {
			if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
				t.Fatal(err)
			}
			// An older build's whole-file index, naming just one block.
			legacy, err := json.Marshal(map[string]any{
				"schema": 1,
				"blocks": []IndexEntry{{Key: keys[0], Bench: "astar", Runs: 2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, filepath.Join(dir, legacyIndexName), legacy)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openDir(t, dir)
			for i, k := range keys {
				putKey(t, s, k, uint64(i))
			}
			clean, err := os.ReadFile(filepath.Join(dir, indexName))
			if err != nil {
				t.Fatalf("read index: %v", err)
			}
			tc.damage(t, dir, clean)

			requireFullIndex(t, dir, len(keys))
			rebuilt, err := os.ReadFile(filepath.Join(dir, indexName))
			if err != nil {
				t.Fatalf("read rebuilt index: %v", err)
			}
			if !bytes.Equal(rebuilt, clean) {
				t.Fatalf("index not rebuilt:\n%s\nwant\n%s", rebuilt, clean)
			}
			if _, err := os.Stat(filepath.Join(dir, legacyIndexName)); !os.IsNotExist(err) {
				t.Fatalf("legacy index.json survived the rebuild (stat err %v)", err)
			}
		})
	}
}

// TestPutAppendsToIndex: Put extends the index file in place, one line per
// block, instead of replacing it.
func TestPutAppendsToIndex(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	path := filepath.Join(dir, indexName)
	putKey(t, s, "astar|first", 1)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat index: %v", err)
	}
	putKey(t, s, "astar|second", 2)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat index: %v", err)
	}
	if !os.SameFile(before, after) {
		t.Fatalf("Put replaced the index file instead of appending to it")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read index: %v", err)
	}
	if lines := bytes.Count(buf, []byte{'\n'}); lines != 3 {
		t.Fatalf("index has %d lines, want a header and one per block:\n%s", lines, buf)
	}
}

func writeFile(t *testing.T, path string, buf []byte) {
	t.Helper()
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
