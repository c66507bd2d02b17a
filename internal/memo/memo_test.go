package memo_test

import (
	"fmt"
	"sync"
	"testing"

	"clfuzz/internal/memo"
)

// TestFIFO pins the memo's contract step by step: eviction in insertion
// order whatever was hit, the guard text as part of every lookup, Add
// never replacing a present key, and Has counting nothing.
func TestFIFO(t *testing.T) {
	m := memo.New[int, string](2)
	type step struct {
		op    string // "add", "get" or "has"
		key   int
		guard string
		val   string // value to add, or the value a get must return
		ok    bool   // what the operation must report
	}
	for i, s := range []step{
		{"add", 1, "a", "one", true},
		{"add", 2, "b", "two", true},
		{"get", 1, "a", "one", true},
		// A lookup under another guard misses: the collision path.
		{"get", 1, "other", "", false},
		{"has", 1, "other", "", false},
		// Add never overwrites a present key, under either guard.
		{"add", 1, "a", "uno", false},
		{"add", 1, "other", "uno", false},
		{"get", 1, "a", "one", true},
		// At the bound the oldest goes first, though it was just hit.
		{"add", 3, "c", "three", true},
		{"has", 1, "a", "", false},
		{"has", 2, "b", "", true},
		{"add", 4, "d", "four", true},
		{"get", 2, "b", "", false},
		{"get", 3, "c", "three", true},
		{"get", 4, "d", "four", true},
		// An evicted key can be added again, and then evicts the oldest.
		{"add", 1, "a", "again", true},
		{"has", 3, "c", "", false},
		{"get", 1, "a", "again", true},
	} {
		switch s.op {
		case "add":
			if got := m.Add(s.key, s.guard, s.val); got != s.ok {
				t.Fatalf("step %d: Add(%d, %q) = %v, want %v", i, s.key, s.guard, got, s.ok)
			}
		case "get":
			got, ok := m.Get(s.key, s.guard)
			if ok != s.ok || got != s.val {
				t.Fatalf("step %d: Get(%d, %q) = %q, %v; want %q, %v", i, s.key, s.guard, got, ok, s.val, s.ok)
			}
		case "has":
			if got := m.Has(s.key, s.guard); got != s.ok {
				t.Fatalf("step %d: Has(%d, %q) = %v, want %v", i, s.key, s.guard, got, s.ok)
			}
		}
	}
	// Seven Gets above: five hits and two misses. The five Has calls
	// count nothing.
	if hits, misses, size := m.Stats(); hits != 5 || misses != 2 || size != 2 {
		t.Fatalf("Stats() = %d hits, %d misses, %d entries; want 5, 2, 2", hits, misses, size)
	}
}

// TestFIFOMinimumBound: a bound below one holds one entry.
func TestFIFOMinimumBound(t *testing.T) {
	m := memo.New[int, int](0)
	m.Add(1, "", 1)
	m.Add(2, "", 2)
	if m.Has(1, "") || !m.Has(2, "") {
		t.Fatal("a zero bound did not keep exactly the newest entry")
	}
}

// TestFIFOConcurrent hammers one small memo from several goroutines
// with overlapping keys, so lookups, inserts and evictions interleave
// (run under -race in CI). Every hit must return the value its key and
// guard were added with, the entry count never exceeds the bound, and
// every Get is counted once.
func TestFIFOConcurrent(t *testing.T) {
	const bound, workers, rounds, keys = 8, 4, 2000, 24
	m := memo.New[int, string](bound)
	val := func(k int) string { return fmt.Sprintf("v%d", k) }
	guard := func(k int) string { return fmt.Sprintf("g%d", k%3) }
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w*5) % keys
				if v, ok := m.Get(k, guard(k)); ok && v != val(k) {
					errs <- fmt.Sprintf("Get(%d) = %q, want %q", k, v, val(k))
					return
				}
				m.Add(k, guard(k), val(k))
				if _, _, size := m.Stats(); size > bound {
					errs <- fmt.Sprintf("%d entries, bound %d", size, bound)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if hits, misses, _ := m.Stats(); hits+misses != workers*rounds {
		t.Fatalf("%d hits + %d misses, want %d Gets", hits, misses, workers*rounds)
	}
}
