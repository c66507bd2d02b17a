package exec

import (
	"math/bits"
	"sync/atomic"
)

// Edge coverage. The register VM collects AFL-style edge coverage in its
// dispatch loop when Options.Cover is set: every taken branch — the false
// arm of OpBranchFalse and the short-circuit jump of OpBoolTest — records
// one bit keyed by (function index, branch pc, taken target pc), and the
// three static defect-trigger shapes the lowerer resolves (stores through
// dereferenced or arrow-member pointer parameters, dead-loop exits with a
// LoopExit record) bump per-site hit counters. Coverage observes execution
// without steering it: outputs, fuel accounting and verdicts are
// byte-identical with coverage on or off, and a nil Cover skips every
// recording branch so coverage-off runs pay only a predictable-branch
// nil check. The tree-walking reference engine records nothing — callers
// that force it (CLFUZZ_ENGINE=tree) run coverage-off and must tolerate an
// empty map.
//
// The edge space is a fixed CoverBits-entry bitmap shared by every
// program: the same (fn, pc, target) coordinates in two different kernels
// intentionally collide, so coverage saturates quickly on the shapes the
// generator emits all the time and novel bits come only from unusual
// control-flow layouts. That is the feedback signal internal/corpus ranks
// its corpus by. All updates are commutative (bitwise OR, counter adds),
// so a map filled by concurrent launches does not depend on their order.

// CoverBits is the size of the shared edge bitmap. Power of two so edge
// hashes reduce by masking.
const CoverBits = 1 << 16

const coverWords = CoverBits / 64

// Defect-trigger site indices for CoverMap site counters.
const (
	CoverSiteDerefStore = iota // store through a dereferenced pointer parameter
	CoverSiteArrowStore        // store through an arrow member of a pointer parameter
	CoverSiteDeadLoop          // zero-iteration exit of a dead-loop-defect for loop
	CoverNumSites
)

// CoverMap accumulates edge and defect-site coverage across any number of
// launches. The zero value is ready to use. All methods are safe for
// concurrent use; updates are atomic and commutative, so accumulation
// order never changes the final map.
type CoverMap struct {
	bits  [coverWords]uint64
	sites [CoverNumSites]uint64
}

// edgeIndex mixes a branch identity into the bitmap. The inputs are
// lowering-time constants (function index, branch pc, taken target pc),
// so the index is stable across processes, engines-with-coverage, and
// shards.
func edgeIndex(fn, pc, target int32) uint32 {
	h := uint32(fn)*0x9E3779B1 + uint32(pc)*0x85EBCA6B + uint32(target)*0xC2B2AE35
	h ^= h >> 15
	h *= 0x2C1B3C6D
	h ^= h >> 12
	return h & (CoverBits - 1)
}

// hitEdge sets the bit for one taken branch. go.mod targets Go 1.22, so
// the atomic OR is a CAS loop.
func (c *CoverMap) hitEdge(fn, pc, target int32) {
	i := edgeIndex(fn, pc, target)
	w, mask := &c.bits[i>>6], uint64(1)<<(i&63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// hitSite bumps one defect-trigger site counter.
func (c *CoverMap) hitSite(site int) {
	atomic.AddUint64(&c.sites[site], 1)
}

// Count returns the number of distinct edges set.
func (c *CoverMap) Count() int {
	n := 0
	for i := range c.bits {
		n += bits.OnesCount64(atomic.LoadUint64(&c.bits[i]))
	}
	return n
}

// Edges returns the sorted indices of every set edge bit.
func (c *CoverMap) Edges() []uint32 {
	var out []uint32
	for i := range c.bits {
		w := atomic.LoadUint64(&c.bits[i])
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(i<<6+b))
			w &^= 1 << b
		}
	}
	return out
}

// Has reports whether the given edge bit is set.
func (c *CoverMap) Has(edge uint32) bool {
	if edge >= CoverBits {
		return false
	}
	return atomic.LoadUint64(&c.bits[edge>>6])&(1<<(edge&63)) != 0
}

// AddEdges sets the given edge bits (indices as returned by Edges) and
// returns how many of them were new to this map. Out-of-range indices are
// ignored. This is the replay/merge primitive: a result-cache hit replays
// the stored launch delta, and shard merging unions per-shard edge sets,
// both through this one method so the paths cannot diverge.
func (c *CoverMap) AddEdges(edges []uint32) int {
	novel := 0
	for _, e := range edges {
		if e >= CoverBits {
			continue
		}
		w, mask := &c.bits[e>>6], uint64(1)<<(e&63)
		for {
			old := atomic.LoadUint64(w)
			if old&mask != 0 {
				break
			}
			if atomic.CompareAndSwapUint64(w, old, old|mask) {
				novel++
				break
			}
		}
	}
	return novel
}

// SiteHits returns the defect-trigger site counters.
func (c *CoverMap) SiteHits() [CoverNumSites]uint64 {
	var out [CoverNumSites]uint64
	for i := range out {
		out[i] = atomic.LoadUint64(&c.sites[i])
	}
	return out
}

// AddSites adds site-hit counts (as returned by SiteHits) into this map.
func (c *CoverMap) AddSites(s [CoverNumSites]uint64) {
	for i, v := range s {
		if v != 0 {
			atomic.AddUint64(&c.sites[i], v)
		}
	}
}
