package campaign

import (
	"sort"
	"sync"
	"sync/atomic"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/store"
)

// resultKey identifies everything a deterministic launch result depends
// on: the printed-source hash, the full defect model (the launch-time
// gates read the level's divisors and the source hash), the effective
// optimization setting, the resolved evaluation engine (outputs are
// pinned byte-identical across engines, but keying on it keeps the
// engine-comparison suites honest), and a digest of the entire machine
// state the launch reads — NDRange, argument names, scalar values,
// buffer types and initial contents, the result-buffer binding and the
// fuel budget.
type resultKey struct {
	srcHash uint64
	lvl     device.Level
	effOpt  bool
	engine  exec.Engine
	digest  uint64
	// cover separates covered from uncovered launches: only entries
	// written by a covered run carry the coverage delta a covered hit
	// must replay, so the two populations never serve each other.
	cover bool
}

// coverDelta is the coverage one launch contributed: the edge bits it set
// and the defect-site hits it counted, memoized alongside the result so a
// cache hit replays them (accumulated coverage is then independent of the
// cache's hit/miss pattern).
type coverDelta struct {
	edges []uint32
	sites [exec.CoverNumSites]uint64
}

type resultEntry struct {
	// src guards against 64-bit source-hash collisions: a mismatch is
	// treated as a miss (collisions cost performance, never correctness).
	src string
	res UnitResult
	cov coverDelta
}

// ResultCache is the bounded, concurrency-safe cross-base result memo:
// the third cache level after the front-end parse cache and the
// compiled-kernel back cache. Model dedup collapses deterministic
// replicas within one case; the result cache collapses them across
// cases and across campaigns — acceptance-filter runs reused by the
// campaign proper, EMI prunings that reproduce another base's text, and
// repeated benchmark or exhibit verifications all hit here.
//
// Eviction is FIFO over insertion order, which keeps the cache
// deterministic under any interleaving of lookups for the same key set
// (the memoized value for a key never varies, so campaign outputs do
// not depend on hit/miss patterns).
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[resultKey]resultEntry
	fifo    []resultKey
	hits    uint64
	misses  uint64

	// disk is the optional persistent tier (AttachStore): memory misses
	// fall through to it, disk hits are promoted into memory, and every
	// memory insert is written through. The counters below are the
	// campaign-level view — a disk "hit" here means the payload also
	// survived key, semantics-tag and source verification.
	disk       *store.Store
	diskHits   atomic.Uint64
	diskMisses atomic.Uint64
}

// NewResultCache returns a cache bounded to capacity entries (minimum 1).
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{cap: capacity, entries: make(map[resultKey]resultEntry)}
}

// get returns a detached copy of the memoized result for the key, plus
// the coverage delta the original launch contributed (empty for entries
// written by uncovered runs, which only uncovered lookups can reach —
// the key's cover bit separates the populations).
func (rc *ResultCache) get(k resultKey, src string) (UnitResult, coverDelta, bool) {
	rc.mu.Lock()
	e, ok := rc.entries[k]
	if ok && e.src == src {
		rc.hits++
		rc.mu.Unlock()
		r := e.res
		if r.Output != nil {
			r.Output = append([]uint64(nil), r.Output...)
		}
		r.Cached = true
		return r, e.cov, true
	}
	rc.misses++
	rc.mu.Unlock()
	if rc.disk == nil {
		return UnitResult{}, coverDelta{}, false
	}
	// Disk probe runs outside the lock: store reads are file I/O, and two
	// concurrent probes for the same key are benign (identical payloads).
	r, cov, ok := rc.diskGet(k, src)
	if !ok {
		rc.diskMisses.Add(1)
		return UnitResult{}, coverDelta{}, false
	}
	rc.diskHits.Add(1)
	rc.promote(k, src, r, cov)
	if r.Output != nil {
		r.Output = append([]uint64(nil), r.Output...)
	}
	r.Cached = true
	return r, cov, true
}

// promote inserts a disk-tier hit into the memory tier without writing
// it back to disk (it just came from there).
func (rc *ResultCache) promote(k resultKey, src string, r UnitResult, cov coverDelta) {
	r.Cached = false
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.entries[k]; ok {
		return
	}
	if len(rc.fifo) >= rc.cap {
		oldest := rc.fifo[0]
		rc.fifo = rc.fifo[1:]
		delete(rc.entries, oldest)
	}
	rc.entries[k] = resultEntry{src: src, res: r, cov: cov}
	rc.fifo = append(rc.fifo, k)
}

// coverMismatch reports whether the memory tier holds this launch's
// result under the opposite cover bit — the one skip the key split makes
// invisible: the work was done, but for the other coverage population.
func (rc *ResultCache) coverMismatch(k resultKey, src string) bool {
	twin := k
	twin.cover = !twin.cover
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.entries[twin]
	return ok && e.src == src
}

// put records a result under the key, detaching the output slice so
// later caller mutations cannot corrupt the memo.
func (rc *ResultCache) put(k resultKey, src string, r UnitResult, cov coverDelta) {
	r.Cached = false
	if r.Output != nil {
		r.Output = append([]uint64(nil), r.Output...)
	}
	rc.mu.Lock()
	if _, ok := rc.entries[k]; ok {
		rc.mu.Unlock()
		return
	}
	if len(rc.fifo) >= rc.cap {
		oldest := rc.fifo[0]
		rc.fifo = rc.fifo[1:]
		delete(rc.entries, oldest)
	}
	rc.entries[k] = resultEntry{src: src, res: r, cov: cov}
	rc.fifo = append(rc.fifo, k)
	rc.mu.Unlock()
	if rc.disk != nil {
		// Write-through outside the lock: persistence is I/O-bound and
		// must never block concurrent memory-tier lookups. FIFO eviction
		// above only trims the memory tier; the disk entry outlives it.
		rc.diskPut(k, src, r, cov)
	}
}

// Stats reports cumulative hit/miss counts and the current entry count.
func (rc *ResultCache) Stats() (hits, misses uint64, size int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.hits, rc.misses, len(rc.entries)
}

// DiskStats reports the campaign-level disk-tier counters: hits that
// survived full key/tag/source verification and misses (including
// entries the store rejected as corrupt). Zero when no store is
// attached.
func (rc *ResultCache) DiskStats() (hits, misses uint64) {
	return rc.diskHits.Load(), rc.diskMisses.Load()
}

// resultKeyFor builds the cache key for one launch, reporting false when
// the launch is not cacheable: any aggregate- or vector-element argument
// buffer keeps per-element cell trees whose contents the digest does not
// cover, so such launches always execute.
func resultKeyFor(cfg *device.Config, optimize bool, fe *device.FrontEnd, nd exec.NDRange, args exec.Args, result *exec.Buffer, o LaunchOptions, cover bool) (resultKey, bool) {
	engine := o.Engine
	if engine == exec.EngineAuto {
		engine = device.DefaultEngine
	}
	d := digest{h: 14695981039346656037}
	for _, g := range nd.Global {
		d.word(uint64(g))
	}
	for _, l := range nd.Local {
		d.word(uint64(l))
	}
	d.word(uint64(o.BaseFuel))
	names := make([]string, 0, len(args))
	for name := range args {
		names = append(names, name)
	}
	sort.Strings(names)
	resultBound := false
	for _, name := range names {
		a := args[name]
		d.str(name)
		if a.Buf == nil {
			d.word(1)
			d.word(a.Scalar)
			continue
		}
		if !d.buffer(a.Buf) {
			return resultKey{}, false
		}
		if a.Buf == result {
			// The result binding is part of the key: the residual
			// miscompilation gates corrupt whichever buffer is reported.
			d.word(2)
			resultBound = true
		}
	}
	if !resultBound {
		// A synthesized result buffer (AutoCase's fallback) is read after
		// the run; cover its initial contents too.
		d.word(3)
		if result == nil || !d.buffer(result) {
			return resultKey{}, false
		}
	}
	return resultKey{
		srcHash: fe.Hash,
		lvl:     cfg.Level(optimize),
		effOpt:  optimize && !cfg.NoOptimizer,
		engine:  engine,
		digest:  d.h,
		cover:   cover,
	}, true
}

// digest is an FNV-1a accumulator over the launch's input state.
type digest struct{ h uint64 }

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
	d.word(uint64(len(s)))
}

// buffer folds a flat scalar buffer's type, length and contents into the
// digest; it reports false for cell-backed (aggregate/vector-element)
// buffers, which are not digestible.
func (d *digest) buffer(b *exec.Buffer) bool {
	if b.Cells != nil {
		return false
	}
	d.str(b.Elem.String())
	d.word(uint64(len(b.Words)))
	for i := range b.Words {
		d.word(b.Words[i])
	}
	return true
}
