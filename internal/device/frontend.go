package device

import (
	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/memo"
	"clfuzz/internal/parser"
)

// FrontEnd is the configuration-independent phase of online compilation:
// the lexed and parsed program for one kernel source, plus the canonical
// normal form and its hash, which seeds every hash-gated defect. The
// program held here is pristine (no semantic annotations, no folds
// applied) and the back end never writes to it — sema rebuilds into a
// fresh annotated program — so one FrontEnd can be shared by any number
// of concurrent CompileFrontEnd calls.
type FrontEnd struct {
	Src string
	// Canon is the canonical normal form of Src: the parsed program
	// re-printed by ast.Print. Print-of-parse is a fixpoint (pinned by
	// TestCanonicalFixpoint), so any two sources that parse to the same
	// program — a kernel and its re-printed text, an EMI base and its
	// unpruned variant — share one Canon, one Hash, and therefore every
	// defect-gate decision and every compile/result cache entry. Equal to
	// Src when parsing failed.
	Canon string
	// Hash is bugs.Hash(Canon): the identity every hash-gated defect and
	// every cache level keys on.
	Hash uint64
	// Prog is the parsed program, nil when Err is non-nil.
	Prog *ast.Program
	// Err is the parse error, reported by every configuration as a build
	// failure (parsing is configuration-independent in the model).
	Err error
}

// ParseFrontEnd runs the front-end phase without consulting any cache.
func ParseFrontEnd(src string) *FrontEnd {
	fe := &FrontEnd{Src: src}
	fe.Prog, fe.Err = parser.Parse(src)
	if fe.Err != nil {
		fe.Canon = src
	} else {
		fe.Canon = ast.Print(fe.Prog)
	}
	fe.Hash = bugs.Hash(fe.Canon)
	return fe
}

// CanonicalSource returns the canonical normal form of a kernel source:
// its print-of-parse fixpoint. Sources that do not parse canonicalize to
// themselves (their identity stays the raw text).
func CanonicalSource(src string) string {
	prog, err := parser.Parse(src)
	if err != nil {
		return src
	}
	return ast.Print(prog)
}

// FrontCache is a bounded, concurrency-safe memo of front-end results
// keyed by bugs.Hash(src). A differential campaign compiles the same
// kernel source once per (configuration, optimization level) pair — 42
// times for the full Table 1 matrix — and the lex/parse work is identical
// every time; the cache collapses it to one parse per distinct source.
//
// Eviction is FIFO over insertion order (memo.FIFO), which keeps the
// cache deterministic under any interleaving of Get calls for the same
// key set (the memoized value for a source never varies, so campaign
// outputs do not depend on hit/miss patterns).
type FrontCache struct {
	m *memo.FIFO[uint64, *FrontEnd]
}

// NewFrontCache returns a cache bounded to capacity entries (minimum 1).
func NewFrontCache(capacity int) *FrontCache {
	return &FrontCache{m: memo.New[uint64, *FrontEnd](capacity)}
}

// Get returns the memoized front end for src, parsing and recording it on
// a miss. The source text guards every entry: on the (theoretical) event
// of a 64-bit hash collision between distinct sources, the cached entry
// is left alone and a fresh parse is returned, so collisions cost
// performance, never correctness.
func (fc *FrontCache) Get(src string) *FrontEnd {
	h := bugs.Hash(src)
	if fe, ok := fc.m.Get(h, src); ok {
		return fe
	}
	// Two concurrent misses for one source both parse; their values are
	// identical, and the first Add wins.
	fe := ParseFrontEnd(src)
	fc.m.Add(h, src, fe)
	return fe
}

// Stats reports cumulative hit/miss counts and the current entry count.
func (fc *FrontCache) Stats() (hits, misses uint64, size int) {
	return fc.m.Stats()
}

// DefaultFrontCache is the process-wide front-end cache used by
// Config.Compile. Campaigns that want isolation (or the determinism tests,
// which compare against the uncached path) can construct their own with
// NewFrontCache or bypass caching entirely with CompileUncached.
var DefaultFrontCache = NewFrontCache(1024)
