package device

import (
	"fmt"
	"sync"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/benchmarks"
	"clfuzz/internal/bugs"
	"clfuzz/internal/code"
	"clfuzz/internal/generator"
	"clfuzz/internal/opt"
	"clfuzz/internal/sema"
)

func kernelSrc(i int) string {
	return fmt.Sprintf(`
kernel void entry(global ulong *out) {
    ulong v = %dUL;
    out[get_linear_global_id()] = v;
}
`, i)
}

// TestCanonicalFixpoint pins the property every cache level and defect
// gate relies on: ast.Print of a parsed program is a fixpoint, so a
// source and its canonical re-print share one Canon and one Hash. It
// checks hand-written kernels (whose spacing and comments differ from
// printer output) and generated ones across the generator's modes.
func TestCanonicalFixpoint(t *testing.T) {
	srcs := []string{
		kernelSrc(0),
		kernelSrc(41),
		"// comment\nkernel void entry(global ulong *out) { out[0] = (ulong)((uint)7); }\n",
		"constant int gate_tuning_0 = 0;\nkernel void entry(global ulong *out) { out[get_linear_global_id()] = 1UL; }\n",
	}
	for _, mode := range generator.Modes {
		for seed := int64(900); seed < 903; seed++ {
			k := generator.Generate(generator.Options{Mode: mode, Seed: seed, MaxTotalThreads: 16})
			srcs = append(srcs, k.Src)
		}
	}
	for i, src := range srcs {
		canon := CanonicalSource(src)
		if canon == src && i < 4 {
			// Hand-written sources are deliberately non-canonical; a
			// no-op canonicalization here means the test lost its teeth.
			t.Errorf("source %d: expected canonicalization to change hand-written text", i)
		}
		again := CanonicalSource(canon)
		if again != canon {
			t.Errorf("source %d: canonical form is not a fixpoint\n--- first ---\n%s\n--- second ---\n%s", i, canon, again)
		}
		fe := ParseFrontEnd(src)
		if fe.Err != nil {
			t.Fatalf("source %d: parse failed: %v", i, fe.Err)
		}
		if fe.Canon != canon || fe.Hash != bugs.Hash(canon) {
			t.Errorf("source %d: FrontEnd canon/hash disagree with CanonicalSource", i)
		}
		// The canonical text and the original must be one identity for
		// every cache: parsing the canon yields the same canon and hash.
		fc := ParseFrontEnd(canon)
		if fc.Canon != fe.Canon || fc.Hash != fe.Hash {
			t.Errorf("source %d: re-printed text has a different identity", i)
		}
	}
}

func TestFrontCacheHitsAndEviction(t *testing.T) {
	fc := NewFrontCache(2)
	a, b, c := kernelSrc(1), kernelSrc(2), kernelSrc(3)

	fa := fc.Get(a)
	if fa.Err != nil || fa.Prog == nil {
		t.Fatalf("parse failed: %v", fa.Err)
	}
	if fc.Get(a) != fa {
		t.Fatal("second Get of the same source must return the memoized front end")
	}
	fc.Get(b)
	fc.Get(c) // evicts a (FIFO)
	hits, misses, size := fc.Stats()
	if size != 2 {
		t.Fatalf("size = %d, want 2 (bounded)", size)
	}
	if misses != 3 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/3", hits, misses)
	}
	if fc.Get(a) == fa {
		t.Fatal("evicted entry must be re-parsed")
	}
}

func TestFrontCacheParseErrorMemoized(t *testing.T) {
	fc := NewFrontCache(4)
	fe := fc.Get("kernel void broken(")
	if fe.Err == nil {
		t.Fatal("expected a parse error")
	}
	// Every configuration must report the same build failure through the
	// cached front end.
	for _, cfg := range All() {
		cr := cfg.CompileFrontEnd(fe, true)
		if cr.Outcome != BuildFailure {
			t.Fatalf("config %d: outcome %v, want build failure", cfg.ID, cr.Outcome)
		}
	}
}

// TestCompileMatchesUncached compiles a kernel through the default cache
// and through the bypass on every configuration and level, comparing
// outcomes (the harness determinism test covers full output equality).
func TestCompileMatchesUncached(t *testing.T) {
	src := kernelSrc(7)
	for _, cfg := range All() {
		for _, opt := range []bool{false, true} {
			a := cfg.Compile(src, opt)
			b := cfg.CompileUncached(src, opt)
			if a.Outcome != b.Outcome || a.Msg != b.Msg {
				t.Fatalf("config %d opt=%v: cached (%v, %q) != uncached (%v, %q)",
					cfg.ID, opt, a.Outcome, a.Msg, b.Outcome, b.Msg)
			}
		}
	}
}

// TestCompileFrontEndSharedIsolation verifies the immutable-kernel
// contract: compiling one front end for many configurations never writes
// to it (the back end builds a fresh annotated program instead of cloning
// and mutating), no compiled kernel aliases the pristine parse, and the
// back cache shares one immutable program across the configurations whose
// defect model compiles the source identically.
func TestCompileFrontEndSharedIsolation(t *testing.T) {
	fe := ParseFrontEnd(kernelSrc(9))
	if fe.Err != nil {
		t.Fatalf("parse: %v", fe.Err)
	}
	pristine := ast.Print(fe.Prog)
	var kernels []*Kernel
	for _, cfg := range All() {
		cr := cfg.CompileFrontEnd(fe, true)
		if cr.Outcome == OK {
			if cr.Kernel.Prog == fe.Prog {
				t.Fatalf("config %d: compiled kernel aliases the pristine front-end program", cfg.ID)
			}
			kernels = append(kernels, cr.Kernel)
		}
	}
	if len(kernels) < 2 {
		t.Fatalf("expected at least two successful compiles, got %d", len(kernels))
	}
	if got := ast.Print(fe.Prog); got != pristine {
		t.Fatal("compiling mutated the shared front-end program")
	}
	// Configurations 1-4 share one defect-free Opt level; the back cache
	// must hand them the same immutable compiled program.
	shared := 0
	for i := 1; i < len(kernels); i++ {
		if kernels[i].Prog == kernels[0].Prog {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("back cache did not share the compiled program across identical defect models")
	}
}

// TestBackCacheFoldFreeOneProgram pins the fold stage's key. A source no
// fold model can act on (opt.FoldDefects is empty), compiled on every
// configuration at both levels through a fresh BackCache, yields one
// program and one bytecode per effective optimize level, so device.Share
// can serve any of those configurations from one execution. Keyed on all
// three fold bits, the stage built four identical programs at opt=true.
func TestBackCacheFoldFreeOneProgram(t *testing.T) {
	srcs := []string{generator.Generate(generator.Options{Mode: generator.ModeBasic, Seed: 5, MaxTotalThreads: 16}).Src}
	for _, b := range benchmarks.All() {
		srcs = append(srcs, b.Src)
	}
	for i, src := range srcs {
		fe := ParseFrontEnd(src)
		if fe.Err != nil {
			t.Fatalf("source %d: parse: %v", i, fe.Err)
		}
		checked, _, err := sema.Check(fe.Prog, 0)
		if err != nil {
			t.Fatalf("source %d: sema: %v", i, err)
		}
		if fold := opt.FoldDefects(checked, fe.Hash); fold != 0 {
			t.Fatalf("source %d: FoldDefects = %#x, want a source no fold model acts on", i, fold)
		}
		bc := NewBackCache(64)
		progs := map[bool]map[*ast.Program]bool{false: {}, true: {}}
		codes := map[bool]map[*code.Program]bool{false: {}, true: {}}
		for _, cfg := range All() {
			for _, optimize := range []bool{false, true} {
				effOpt := optimize && !cfg.NoOptimizer
				be := bc.assemble(fe, cfg.Level(optimize), effOpt)
				if be.outcome == OK {
					progs[effOpt][be.prog] = true
					codes[effOpt][be.code] = true
				}
			}
		}
		for _, effOpt := range []bool{false, true} {
			if len(progs[effOpt]) != 1 || len(codes[effOpt]) != 1 {
				t.Errorf("source %d, effective optimize %v: %d programs and %d bytecodes, want 1 and 1",
					i, effOpt, len(progs[effOpt]), len(codes[effOpt]))
			}
		}
	}
}

// TestBackCacheSecondPassHits pins that the two stage memos alone serve
// every repeat compile: compiling the same sources on every configuration
// at both levels a second time through one BackCache runs no stage — the
// calls double and the misses do not move — and hands back the very Prog,
// Info and Code objects of the first pass, the identity Share matches on.
func TestBackCacheSecondPassHits(t *testing.T) {
	bc := NewBackCache(4096)
	fes := []*FrontEnd{
		ParseFrontEnd(kernelSrc(3)),
		ParseFrontEnd(generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: 321, MaxTotalThreads: 32}).Src),
	}
	pass := func() []CompileResult {
		var out []CompileResult
		for _, fe := range fes {
			for _, cfg := range All() {
				for _, optimize := range []bool{false, true} {
					out = append(out, cfg.compileFE(fe, optimize, bc))
				}
			}
		}
		return out
	}
	first := pass()
	hits1, misses1, size1 := bc.Stats()
	second := pass()
	hits2, misses2, size2 := bc.Stats()
	if calls := uint64(len(first)); hits1+misses1 != calls || hits2+misses2 != 2*calls {
		t.Fatalf("calls after each pass = %d, %d; want %d, %d", hits1+misses1, hits2+misses2, calls, 2*calls)
	}
	if misses1 == 0 || misses2 != misses1 {
		t.Fatalf("misses after each pass = %d, %d; want the same nonzero count", misses1, misses2)
	}
	if size1 == 0 || size2 != size1 {
		t.Fatalf("fold-stage entries after each pass = %d, %d; want the same nonzero count", size1, size2)
	}
	ok := 0
	for i, a := range first {
		b := second[i]
		if a.Outcome != b.Outcome || a.Msg != b.Msg {
			t.Fatalf("compile %d: second pass (%v, %q) != first (%v, %q)", i, b.Outcome, b.Msg, a.Outcome, a.Msg)
		}
		if a.Outcome != OK {
			continue
		}
		ok++
		if a.Kernel.Prog != b.Kernel.Prog || a.Kernel.Info != b.Kernel.Info || a.Kernel.Code != b.Kernel.Code {
			t.Errorf("compile %d (config %d opt=%v): second pass returned new artifacts", i, a.Kernel.Config.ID, a.Kernel.Optimized)
		}
	}
	if ok == 0 {
		t.Fatal("no compile succeeded")
	}
}

// TestFrontCacheConcurrentEviction hammers a tiny cache from many
// goroutines over more sources than it can hold, so every Get races with
// FIFO evictions. The contract under test is hit/miss independence: no
// matter which Gets hit, miss, or collide with an eviction, every returned
// front end must be the correct parse of its source, and the cache must
// stay within its bound.
func TestFrontCacheConcurrentEviction(t *testing.T) {
	fc := NewFrontCache(2)
	const sources = 7
	srcs := make([]string, sources)
	for i := range srcs {
		srcs[i] = kernelSrc(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				i := (g*13 + round) % sources
				fe := fc.Get(srcs[i])
				if fe.Src != srcs[i] || fe.Err != nil || fe.Prog == nil {
					t.Errorf("Get returned wrong or broken front end for source %d", i)
					return
				}
				if fe.Hash != bugs.Hash(fe.Canon) || fe.Canon != CanonicalSource(srcs[i]) {
					t.Errorf("front end hash mismatch for source %d", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, size := fc.Stats()
	if size > 2 {
		t.Fatalf("cache exceeded its bound: %d entries", size)
	}
	if hits+misses != 8*50 {
		t.Fatalf("hits (%d) + misses (%d) != total Gets (%d)", hits, misses, 8*50)
	}
}
