// Package memo provides the bounded, concurrency-safe memo every cache
// level of the compile and result pipeline is built on: the front-end
// parse cache, both back-end stage memos and the result cache's memory
// tier.
//
// A FIFO evicts in insertion order, oldest first, and a lookup never
// reorders it, so which entries survive depends only on the sequence of
// inserted keys, not on hit patterns. Each entry carries a guard text —
// the canonical source its key was hashed from — and a lookup under the
// right key but another guard misses, so a 64-bit hash collision costs a
// recomputation, never a wrong answer. Add never replaces an entry: the
// first value recorded under a key stays until it is evicted.
package memo

import "sync"

// FIFO is a bounded map from K to V with first-in, first-out eviction.
// The zero value is not usable; construct one with New.
type FIFO[K comparable, V any] struct {
	mu      sync.Mutex
	bound   int
	entries map[K]entry[V]
	// order holds the keys in insertion order as a ring: once it holds
	// bound keys, next indexes the oldest, which the next Add replaces.
	order        []K
	next         int
	hits, misses uint64
}

type entry[V any] struct {
	guard string
	val   V
}

// New returns a FIFO bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *FIFO[K, V] {
	return &FIFO[K, V]{bound: max(capacity, 1), entries: make(map[K]entry[V])}
}

// Get returns the value recorded under key with the guard text guard,
// counting a hit, or reports false and counts a miss when key is absent
// or was recorded under another guard.
func (m *FIFO[K, V]) Get(key K, guard string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if ok && e.guard == guard {
		m.hits++
		return e.val, true
	}
	m.misses++
	var zero V
	return zero, false
}

// Has reports whether key holds a value recorded under guard, without
// counting a hit or a miss.
func (m *FIFO[K, V]) Has(key K, guard string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return ok && e.guard == guard
}

// Add records val under key and guard unless key is already present,
// under any guard, and reports whether it did. At the bound the oldest
// entry makes room.
func (m *FIFO[K, V]) Add(key K, guard string, val V) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return false
	}
	if len(m.order) < m.bound {
		m.order = append(m.order, key)
	} else {
		delete(m.entries, m.order[m.next])
		m.order[m.next] = key
		m.next = (m.next + 1) % m.bound
	}
	m.entries[key] = entry[V]{guard: guard, val: val}
	return true
}

// Stats reports the cumulative hit and miss counts of Get and the
// current entry count.
func (m *FIFO[K, V]) Stats() (hits, misses uint64, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, len(m.entries)
}
