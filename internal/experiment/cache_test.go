package experiment

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sameBits compares two blocks bit for bit (NaN marks equal NaN).
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// segments lists the cache segments in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".jsonl") {
			segs = append(segs, name)
		}
	}
	return segs
}

func TestCacheRoundTrip(t *testing.T) {
	g := stateTestGrid()
	cfg := g.Configs()[0]
	// Glob metacharacters in the directory name must not hide segments.
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache[1]*"))
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey(g, []string{"A", "B"}, NormalError, false, cfg)
	mean := [][]float64{{1.5, math.NaN()}, {2.25, 3.125}}
	if err := c.Put(key, cfg, mean); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key, 2, 2)
	if !ok {
		t.Fatal("cache miss immediately after Put")
	}
	if got[0][0] != 1.5 || !math.IsNaN(got[0][1]) || got[1][0] != 2.25 || got[1][1] != 3.125 {
		t.Fatalf("round-trip mangled the block: %v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d, want 1", c.Len())
	}

	// Shape mismatches are misses, never errors.
	if _, ok := c.Get(key, 3, 2); ok {
		t.Fatal("cache hit with wrong error count")
	}
	if _, ok := c.Get(key, 2, 3); ok {
		t.Fatal("cache hit with wrong algorithm count")
	}

	// A fresh handle reads the block back from the segment, bit for bit.
	c2, err := OpenCache(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(key, 2, 2); !ok || !sameBits(got, mean) {
		t.Fatalf("reopened cache Get = %v, %v; want %v", got, ok, mean)
	}
	if n := len(segments(t, c.Dir())); n != 1 {
		t.Fatalf("one handle wrote %d segments, want 1", n)
	}
}

// Every malformed line of a segment is a miss for its key, never an open
// error, and does not hide the well-formed lines around it. Old per-key
// <key>.json files, the layout before segments, are not read at all.
func TestCacheSegmentCorruptLinesMiss(t *testing.T) {
	g := stateTestGrid()
	configs := g.Configs()
	names := []string{"A", "B"}
	key := func(i int) string { return CellKey(g, names, NormalError, false, configs[i]) }
	mean := [][]float64{{1.5, math.NaN()}, {2.25, 3.125}}
	good := func(k string) string {
		raw, err := EncodeCell(mean)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"key":%q,"config":"c","mean":%s}`, k, raw)
	}
	seg := good(key(0)) + "\n" +
		"{garbage\n" +
		fmt.Sprintf(`{"key":%q,"config":"c","mean":[[1]]}`, key(1)) + "\n" + // wrong shape
		fmt.Sprintf(`{"key":%q,"config":"c","mean":"x"}`, key(2)) + "\n" + // not a block
		good(key(3)) + "\n" +
		good(key(4))[:40] // torn tail: killed mid-append
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-torn.jsonl"), []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{"key":%q,"config":"c","mean":[[1,2],[3,4]]}`, key(5))
	if err := os.WriteFile(filepath.Join(dir, key(5)+".json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("OpenCache on a corrupt segment: %v", err)
	}
	for _, i := range []int{0, 3} {
		if got, ok := c.Get(key(i), 2, 2); !ok || !sameBits(got, mean) {
			t.Fatalf("well-formed line %d: Get = %v, %v", i, got, ok)
		}
	}
	for i, what := range map[int]string{1: "wrong-shape", 2: "non-block", 4: "torn", 5: "legacy per-key file"} {
		if got, ok := c.Get(key(i), 2, 2); ok {
			t.Fatalf("%s entry: cache hit %v", what, got)
		}
	}

	// The recomputed cells land in a new segment; the torn one is never
	// appended to, so a reopen serves old and new lines alike. (Key 1 is
	// left out of the reopen: when two segments disagree on a key, which
	// line a new handle indexes is unspecified.)
	for _, i := range []int{1, 4, 5} {
		if err := c.Put(key(i), configs[i], mean); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key(i), 2, 2); !ok || !sameBits(got, mean) {
			t.Fatalf("Get after Put of key %d = %v, %v", i, got, ok)
		}
	}
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("%d segments after repair, want 2", n)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3, 4, 5} {
		if got, ok := c2.Get(key(i), 2, 2); !ok || !sameBits(got, mean) {
			t.Fatalf("after repair, key %d: Get = %v, %v", i, got, ok)
		}
	}
}

// Two handles on one directory stand in for two processes sharing a
// cache: each writes its own segment, and a third handle opened afterwards
// sees every key both wrote.
func TestCacheHandlesShareDirectory(t *testing.T) {
	g := stateTestGrid()
	configs := g.Configs()
	dir := t.TempDir()
	a, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	block := func(i int) [][]float64 { return [][]float64{{float64(i), 0.5}, {math.NaN(), 1e-7 * float64(i+1)}} }
	key := func(i int) string { return CellKey(g, []string{"A", "B"}, NormalError, false, configs[i]) }
	for i := range configs {
		h := a
		if i%2 == 1 {
			h = b
		}
		if err := h.Put(key(i), configs[i], block(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Both handles put the same cell: same bytes, no conflict.
	if err := b.Put(key(0), configs[0], block(0)); err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("two handles wrote %d segments, want 2", n)
	}

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(configs) {
		t.Fatalf("third handle indexes %d keys, want %d", c.Len(), len(configs))
	}
	for i := range configs {
		if got, ok := c.Get(key(i), 2, 2); !ok || !sameBits(got, block(i)) {
			t.Fatalf("key %d: Get = %v, %v; want %v", i, got, ok, block(i))
		}
	}
}

// Put and Get from several goroutines on one handle (run under -race in
// CI): every Put is visible to the handle at once and to a reopen.
func TestCacheConcurrentPutGet(t *testing.T) {
	const goroutines, perG = 8, 25
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := stateTestGrid().Configs()[0]
	block := func(g, i int) [][]float64 { return [][]float64{{float64(g), float64(i)}} }
	key := func(g, i int) string { return fmt.Sprintf("k%d-%d", g, i) }
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := c.Put(key(g, i), cfg, block(g, i)); err != nil {
					errs <- err
					return
				}
				if got, ok := c.Get(key(g, i), 1, 2); !ok || !sameBits(got, block(g, i)) {
					errs <- fmt.Errorf("key %s: Get after Put = %v, %v", key(g, i), got, ok)
					return
				}
				// Read another goroutine's key: a miss or its block.
				if got, ok := c.Get(key((g+1)%goroutines, i), 1, 2); ok && !sameBits(got, block((g+1)%goroutines, i)) {
					errs <- fmt.Errorf("key %s: foreign Get = %v", key((g+1)%goroutines, i), got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", c.Len(), goroutines*perG)
	}
	c2, err := OpenCache(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if got, ok := c2.Get(key(g, i), 1, 2); !ok || !sameBits(got, block(g, i)) {
				t.Fatalf("reopen, key %s: Get = %v, %v", key(g, i), got, ok)
			}
		}
	}
}

// FuzzCacheSegment opens arbitrary bytes as a cache segment: OpenCache
// never fails or panics, and Get returns a miss or a block of exactly the
// requested shape.
func FuzzCacheSegment(f *testing.F) {
	valid := `{"key":"k","config":"c","mean":[[1.5,null],[2.25,3.125]]}` + "\n"
	f.Add([]byte(valid + `{"key":"j","config":"c","mean":[[1,2],[3,4]]}` + "\n"))
	f.Add([]byte(valid + `{"key":"j","config":"c","mean":[[1,2],[3`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-fuzz.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("OpenCache: %v", err)
		}
		keys := []string{"k", "j", ""}
		for key := range c.index {
			keys = append(keys, key)
		}
		for _, key := range keys {
			for _, shape := range [][2]int{{2, 2}, {1, 2}, {0, 0}} {
				if got, ok := c.Get(key, shape[0], shape[1]); ok && !cellShapeOK(got, shape[0], shape[1]) {
					t.Fatalf("Get(%q, %d, %d) = %v: wrong shape", key, shape[0], shape[1], got)
				}
			}
		}
	})
}
