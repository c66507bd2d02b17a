package device

import (
	"sync/atomic"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/code"
	"clfuzz/internal/memo"
	"clfuzz/internal/opt"
	"clfuzz/internal/sema"
)

// semaDefects are the only bits semantic analysis reads (all three gate
// rejections; annotations never depend on the defect set, so every
// successful check of one source yields the identical program). The sema
// stage keys on a level's defect set masked to them; the fold stage keys
// on the bits opt.FoldDefects reports for the checked program. So
// configurations whose models differ only in bits a stage cannot act on
// share its product outright. The cached-vs-uncached determinism tests
// (internal/harness and TestBackCacheMatchesUncached) pin both keys: a
// defect added to sema without extending semaDefects, or to opt without
// opt.FoldDefects reporting it, makes the cached path visibly diverge
// from the CompileUncached reference.
const semaDefects = bugs.FEIntSizeTMix | bugs.FEVectorLogicalReject | bugs.FEVectorInStructICE

// backEnd is the immutable product of one back-end compilation: the
// outcome with its diagnostic, and for OK outcomes the checked, folded,
// (possibly) optimized program plus its semantic summary. The program is
// read-only — sema and opt build rather than mutate, and the executor
// never writes to the AST — so the stage memos hand the same program to
// any number of configurations, which run it concurrently.
type backEnd struct {
	outcome Outcome
	msg     string
	prog    *ast.Program
	info    *sema.Info
	// code is the register bytecode lowered from prog. Like prog it is
	// immutable and shared across configurations and launches.
	code *code.Program
}

// checkedKey addresses the sema stage: defects is masked to semaDefects.
type checkedKey struct {
	hash    uint64
	defects bugs.Set
}

// checkedEntry is a memoized sema product: the annotated program, its
// summary and the fold defects it can trigger (opt.FoldDefects), or the
// build diagnostic that rejected the source.
type checkedEntry struct {
	prog   *ast.Program
	info   *sema.Info
	fold   bugs.Set
	errMsg string
}

// progKey addresses the fold/optimize stage: defects is masked to the
// checked program's fold defects.
type progKey struct {
	hash     uint64
	defects  bugs.Set
	optimize bool
}

// progEntry is a memoized fold/optimize/lower product: the program and
// its bytecode, or the lowering diagnostic that rejected the program.
type progEntry struct {
	prog   *ast.Program
	code   *code.Program
	errMsg string
}

// Lowering counters: programs lowered to bytecode vs programs whose
// lowering failed (each a build failure). Shared artifacts (lowered once,
// reused via the prog-stage memo) count once, so the counts measure
// distinct compiles.
var (
	lowerCompiles atomic.Uint64
	lowerFailures atomic.Uint64
)

// LowerStats reports the cumulative lowering counters: how many distinct
// back-end programs were compiled to bytecode, and how many failed to
// lower and were reported as build failures.
func LowerStats() (lowered, failed uint64) {
	return lowerCompiles.Load(), lowerFailures.Load()
}

// lowerProgram compiles the finished back-end program to register
// bytecode, recording the outcome. Lowering is total over everything the
// generator, the mutators and the ports produce; a program it cannot
// express is reported as a build failure carrying the lowering error.
func lowerProgram(prog *ast.Program) (*code.Program, error) {
	cp, err := code.Lower(prog)
	if err != nil {
		lowerFailures.Add(1)
		return nil, err
	}
	lowerCompiles.Add(1)
	return cp, nil
}

// BackCache is a bounded, concurrency-safe memo of back-end compilations.
// It is the second level of the compile cache: the FrontCache collapses
// the 42 parses of a full Table 1 matrix to one, and the BackCache
// collapses the 42 check+fold+optimize runs to one per distinct input of
// each compile stage. It holds two stage memos, keyed on what each phase
// actually depends on: one sema product per (source, semaDefects) — in
// practice one per source, since rejections are rare — and one
// folded/optimized/lowered program per (source, fold defects, effective
// optimize), where the fold defects are the level's defect bits that
// opt.FoldDefects reports the checked program can trigger. Defect models
// that differ only in bits neither stage can act on for this source
// therefore share every expensive phase and receive the same Prog, Info
// and Code objects — on a source with no rotate, swizzle or gated
// group-id call, one program per effective optimize level for every
// configuration — while the gates are re-evaluated per compile. Programs
// for different fold inputs share all untouched subtrees (the passes are
// copy-on-write).
//
// Both stages are memo.FIFOs, like the FrontCache: eviction follows
// insertion order, and the memoized artifact for a key never varies, so
// campaign outputs do not depend on hit/miss patterns. Every entry is
// guarded by the canonical source, so a 64-bit source-hash collision is
// a miss whose product is not recorded: it costs performance, never
// correctness.
type BackCache struct {
	checked *memo.FIFO[checkedKey, *checkedEntry]
	progs   *memo.FIFO[progKey, *progEntry]
	calls   atomic.Uint64
	misses  atomic.Uint64
}

// NewBackCache returns a cache whose two stage memos hold at most
// capacity entries each (minimum 1).
func NewBackCache(capacity int) *BackCache {
	return &BackCache{
		checked: memo.New[checkedKey, *checkedEntry](capacity),
		progs:   memo.New[progKey, *progEntry](capacity),
	}
}

// assemble builds the artifact for one defect model through the stage
// memos, counting the call, and a miss when sema or fold/lower had to
// run. The compile work runs outside the cache lock; duplicated
// concurrent work for one key is benign (identical immutable results).
func (bc *BackCache) assemble(fe *FrontEnd, lvl Level, effOpt bool) *backEnd {
	bc.calls.Add(1)
	be := &backEnd{}
	ce, missed := bc.checkedFor(checkedKey{hash: fe.Hash, defects: lvl.Defects & semaDefects}, fe)
	if missed {
		bc.misses.Add(1)
	}
	if ce.errMsg != "" {
		be.outcome, be.msg = BuildFailure, ce.errMsg
		return be
	}
	if out, msg := compileGates(ce.info, fe.Hash, lvl); out != OK {
		be.outcome, be.msg = out, msg
		return be
	}
	pe, folded := bc.progFor(progKey{hash: fe.Hash, defects: lvl.Defects & ce.fold, optimize: effOpt}, fe, ce.prog)
	if folded && !missed {
		bc.misses.Add(1)
	}
	if pe.errMsg != "" {
		be.outcome, be.msg = BuildFailure, pe.errMsg
		return be
	}
	be.prog, be.code = pe.prog, pe.code
	be.info = ce.info
	return be
}

// checkedFor returns the memoized sema product for the key, checking the
// pristine front end on a miss; missed reports that sema ran.
func (bc *BackCache) checkedFor(key checkedKey, fe *FrontEnd) (ce *checkedEntry, missed bool) {
	if e, ok := bc.checked.Get(key, fe.Canon); ok {
		return e, false
	}
	prog, info, err := sema.Check(fe.Prog, key.defects)
	ne := &checkedEntry{}
	if err != nil {
		ne.errMsg = err.Error()
	} else {
		ne.prog, ne.info, ne.fold = prog, info, opt.FoldDefects(prog, fe.Hash)
	}
	bc.checked.Add(key, fe.Canon, ne)
	return ne, true
}

// progFor returns the memoized folded/optimized/lowered program for the
// key, running the copy-on-write pipeline (and the bytecode lowering)
// over the shared checked program on a miss; missed reports that it ran.
func (bc *BackCache) progFor(key progKey, fe *FrontEnd, checked *ast.Program) (pe *progEntry, missed bool) {
	if e, ok := bc.progs.Get(key, fe.Canon); ok {
		return e, false
	}
	prog := opt.EarlyFolds(checked, key.defects, key.hash)
	if key.optimize {
		prog = opt.Optimize(prog, key.defects)
	}
	cp, err := lowerProgram(prog)
	ne := &progEntry{prog: prog, code: cp}
	if err != nil {
		ne.errMsg = err.Error()
	}
	bc.progs.Add(key, fe.Canon, ne)
	return ne, true
}

// Stats reports the cumulative cached compiles split into hits and
// misses — a miss is a compile that had to run sema or fold/lower — and
// the fold stage's current entry count.
func (bc *BackCache) Stats() (hits, misses uint64, size int) {
	// A compile counts its call before its miss, so loading the misses
	// first keeps hits from underflowing.
	misses = bc.misses.Load()
	hits = bc.calls.Load() - misses
	_, _, size = bc.progs.Stats()
	return hits, misses, size
}

// DefaultBackCache is the process-wide back-end cache used by
// Config.Compile and Config.CompileFrontEnd. Its stage memos key on a
// few defect bits each, so a full Table 1 matrix adds only a handful of
// entries per source to either stage, and the default capacity holds
// hundreds of concurrent sources. CompileUncached bypasses it (and the
// front cache) entirely.
var DefaultBackCache = NewBackCache(4096)

// compileGates evaluates the compile-time defect triggers for one level:
// the deterministic hang/slow-compile patterns and the hash-gated
// internal-error classes. It is shared verbatim by the cached and
// uncached back ends.
func compileGates(info *sema.Info, hash uint64, lvl Level) (Outcome, string) {
	switch {
	case lvl.Defects.Has(bugs.FECompileHangLoop) && info.HasHangPattern:
		return Timeout, "compiler entered an unbounded loop (Figure 1(e))"
	case lvl.Defects.Has(bugs.FESlowStructBarrier) && info.HasBarrier && info.MaxStructBytes > 64:
		return Timeout, "prohibitively slow compilation of large struct with barrier (Figure 1(f))"
	case lvl.Defects.Has(bugs.FEICEAttr) && bugs.Gate(hash, saltICEAttr, lvl.BFDiv):
		return BuildFailure, "internal error: Wrong type for attribute zeroext"
	case lvl.Defects.Has(bugs.FEICEPass) && bugs.Gate(hash, saltICEPass, lvl.BFDiv):
		return BuildFailure, "internal error in pass 'Intel OpenCL Vectorizer': Instruction does not dominate all uses!"
	case lvl.Defects.Has(bugs.FEICEBarrierHeavy) && info.BarrierCount >= 2 && bugs.Gate(hash, saltICEBarrier, lvl.BFDiv):
		return BuildFailure, "internal error in pass 'Intel OpenCL Barrier'"
	case lvl.Defects.Has(bugs.BFHash) && bugs.Gate(hash, saltBF, lvl.BFDiv):
		return BuildFailure, "internal compiler error"
	case lvl.Defects.Has(bugs.SlowCompileHash) && bugs.Gate(hash, saltSlow, lvl.SlowDiv):
		return Timeout, "compilation exceeded the test timeout"
	}
	return OK, ""
}

// compileBackEnd runs the cache-free back end on a parsed front end: it
// checks the pristine program under the level's defect set (producing a
// fresh annotated program — the front end is never written to), applies
// the compile-time defect gates, the always-on front-end folds, and the
// optimization pipeline when optimize is set (already adjusted for
// NoOptimizer by the caller). It is the reference path the determinism
// tests compare the staged cache against.
func compileBackEnd(fe *FrontEnd, lvl Level, optimize bool) *backEnd {
	be := &backEnd{}
	prog, info, err := sema.Check(fe.Prog, lvl.Defects)
	if err != nil {
		be.outcome, be.msg = BuildFailure, err.Error()
		return be
	}
	if out, msg := compileGates(info, fe.Hash, lvl); out != OK {
		be.outcome, be.msg = out, msg
		return be
	}
	// Always-on front-end folds (host of the ±-level folding defects),
	// then the optimization pipeline. Both are copy-on-write, so the
	// intermediate programs share untouched subtrees and nothing written
	// into the cache aliases mutable state.
	prog = opt.EarlyFolds(prog, lvl.Defects, fe.Hash)
	if optimize {
		prog = opt.Optimize(prog, lvl.Defects)
	}
	cp, err := lowerProgram(prog)
	if err != nil {
		be.outcome, be.msg = BuildFailure, err.Error()
		return be
	}
	be.prog, be.info, be.code = prog, info, cp
	return be
}
