package campaign

import (
	"sort"
	"sync/atomic"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/memo"
	"clfuzz/internal/store"
)

// resultKey identifies everything a deterministic unit result depends
// on, compile included: the printed-source hash, the full defect model
// (the compile reads the level's defect set and gate divisors, the
// launch-time gates its divisors and the source hash; the level's fuel
// factor fixes the step budget), the effective optimization setting,
// the engine the process runs (vm: !device.TreeEngine; outputs are
// pinned byte-identical across engines, but keying on it keeps the
// engine-comparison suites honest), and a digest of the entire machine
// state the launch reads — NDRange, argument names, scalar values,
// buffer types and initial contents, and the result-buffer binding.
// Every field is known before the back end runs, so a hit skips it.
type resultKey struct {
	srcHash uint64
	lvl     device.Level
	effOpt  bool
	vm      bool
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

// resultEntry is one memoized launch. The memory tier guards it with the
// canonical source, so a 64-bit source-hash collision is a miss.
type resultEntry struct {
	res UnitResult
	cov coverDelta
}

// ResultCache is the bounded, concurrency-safe cross-base result memo.
// It sits between the front-end parse cache and the compiled-kernel
// back cache: a unit probes it right after its parse, so a hit skips
// the back end as well as the launch, and a compile outcome (build
// failure or compile timeout) is stored as a result. Model dedup
// collapses deterministic replicas within one case; the result cache
// collapses them across cases and across campaigns — acceptance-filter
// runs reused by the campaign proper, EMI prunings that reproduce
// another base's text, and repeated benchmark or exhibit verifications
// all hit here.
//
// The memory tier is a memo.FIFO: eviction follows insertion order,
// which keeps the cache deterministic under any interleaving of lookups
// for the same key set (the memoized value for a key never varies, so
// campaign outputs do not depend on hit/miss patterns).
type ResultCache struct {
	mem *memo.FIFO[resultKey, resultEntry]

	// disk is the optional persistent tier (AttachStore): memory misses
	// fall through to it, disk hits are added to memory, and every
	// memory insert is written through. The counters below are the
	// campaign-level view — a disk "hit" here means the payload also
	// survived key, semantics-tag and source verification.
	disk       *store.Store
	diskHits   atomic.Uint64
	diskMisses atomic.Uint64
}

// NewResultCache returns a cache bounded to capacity entries (minimum 1).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{mem: memo.New[resultKey, resultEntry](capacity)}
}

// get returns a detached copy of the memoized result for the key, plus
// the coverage delta the original launch contributed (empty for entries
// written by uncovered runs, which only uncovered lookups can reach —
// the key's cover bit separates the populations).
func (rc *ResultCache) get(k resultKey, src string) (UnitResult, coverDelta, bool) {
	e, ok := rc.mem.Get(k, src)
	if !ok && rc.disk != nil {
		// The disk probe is file I/O outside any lock; two concurrent
		// probes for the same key are benign (identical payloads). A hit
		// goes into memory without being written back.
		if e, ok = rc.diskGet(k, src); ok {
			rc.diskHits.Add(1)
			rc.mem.Add(k, src, e)
		} else {
			rc.diskMisses.Add(1)
		}
	}
	if !ok {
		return UnitResult{}, coverDelta{}, false
	}
	r := e.res
	if r.Output != nil {
		r.Output = append([]uint64(nil), r.Output...)
	}
	r.Cached = true
	return r, e.cov, true
}

// coverMismatch reports whether the memory tier holds this launch's
// result under the opposite cover bit — the one skip the key split makes
// invisible: the work was done, but for the other coverage population.
func (rc *ResultCache) coverMismatch(k resultKey, src string) bool {
	k.cover = !k.cover
	return rc.mem.Has(k, src)
}

// put records a result under the key, detaching the output slice so
// later caller mutations cannot corrupt the memo, and writes it through
// to the disk tier unless the memory tier already held the key.
func (rc *ResultCache) put(k resultKey, src string, r UnitResult, cov coverDelta) {
	r.Cached = false
	if r.Output != nil {
		r.Output = append([]uint64(nil), r.Output...)
	}
	e := resultEntry{res: r, cov: cov}
	if rc.mem.Add(k, src, e) && rc.disk != nil {
		// FIFO eviction only trims the memory tier; the disk entry
		// outlives it.
		rc.diskPut(k, src, e)
	}
}

// Stats reports the memory tier's cumulative hit/miss counts and its
// current entry count.
func (rc *ResultCache) Stats() (hits, misses uint64, size int) {
	return rc.mem.Stats()
}

// DiskStats reports the campaign-level disk-tier counters: hits that
// survived full key/tag/source verification and misses (including
// entries the store rejected as corrupt). Zero when no store is
// attached.
func (rc *ResultCache) DiskStats() (hits, misses uint64) {
	return rc.diskHits.Load(), rc.diskMisses.Load()
}

// resultKeyFor builds the cache key for one unit: fe compiled by cfg at
// optimize and launched over nd with args. It reads what the back end
// and the launch read, and nothing the back end produces, so it runs
// before the compile. It reports false when the unit is not cacheable:
// any aggregate- or vector-element argument buffer keeps per-element
// cell trees whose contents the digest does not cover, so such units
// always compile and execute.
func resultKeyFor(fe *device.FrontEnd, cfg *device.Config, optimize bool, nd exec.NDRange, args exec.Args, result *exec.Buffer, cover bool) (resultKey, bool) {
	d := digest{h: 14695981039346656037}
	for _, g := range nd.Global {
		d.word(uint64(g))
	}
	for _, l := range nd.Local {
		d.word(uint64(l))
	}
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
		vm:      !device.TreeEngine,
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
