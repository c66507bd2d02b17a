package code_test

import (
	"strings"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/benchmarks"
	"clfuzz/internal/code"
	"clfuzz/internal/device"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/generator"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

func checkedKernel(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, _, err = sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return prog
}

// TestLowerIsReadOnly pins the lowering half of the immutable-program
// contract: Lower must not write to the checked AST it compiles (the
// same tree is concurrently executed and re-lowered by other defect
// models via the BackCache).
func TestLowerIsReadOnly(t *testing.T) {
	for _, seed := range []int64{5, 7, 11} {
		k := generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: seed, MaxTotalThreads: 16})
		prog := checkedKernel(t, k.Src)
		before := ast.Print(prog)
		if _, err := code.Lower(prog); err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		if after := ast.Print(prog); after != before {
			t.Fatalf("seed %d: lowering mutated the program", seed)
		}
	}
}

// TestLowerDeterministic pins that lowering the same program twice
// yields structurally identical bytecode — instruction counts, frame
// sizes, and per-instruction cost totals — which the BackCache's
// "identical artifacts on duplicated concurrent misses" assumption
// relies on.
func TestLowerDeterministic(t *testing.T) {
	k := generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: 5, MaxTotalThreads: 16})
	prog := checkedKernel(t, k.Src)
	a, err := code.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	b, err := code.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if len(a.Fns) != len(b.Fns) || a.Kernel != b.Kernel {
		t.Fatalf("shape mismatch: %d/%d fns, kernel %d/%d", len(a.Fns), len(b.Fns), a.Kernel, b.Kernel)
	}
	for i := range a.Fns {
		fa, fb := a.Fns[i], b.Fns[i]
		if fa.NumRegs != fb.NumRegs || fa.NumLVs != fb.NumLVs || fa.NumSlots != fb.NumSlots || len(fa.Code) != len(fb.Code) {
			t.Fatalf("fn %s: frame/code shape differs between lowerings", fa.Name)
		}
		for pc := range fa.Code {
			ia, ib := fa.Code[pc], fb.Code[pc]
			if ia.Op != ib.Op || ia.Cost != ib.Cost || ia.Dst != ib.Dst || ia.A != ib.A || ia.B != ib.B {
				t.Fatalf("fn %s pc %d: %+v vs %+v", fa.Name, pc, ia, ib)
			}
		}
	}
}

// inexpressibleDeadLoop is a hand-written kernel with the one shape no
// generated, ported, exhibit or mutated kernel has: a barrier-bearing for
// loop whose init assigns through a subscript, so the Figure 2(d)
// dead-loop defect has no variable to clobber that the lowerer can name.
// The post clause's constant keeps every configuration's hash-gated
// compile defects quiet, so lowering is what rejects the kernel.
const inexpressibleDeadLoop = `kernel void k(global ulong *out) {
    for (out[1] = 0UL; out[1] > 0UL; out[1] = 1UL) { barrier(CLK_LOCAL_MEM_FENCE); }
}
`

// lowerFailed reports whether a compile result is the build failure the
// device layer reports for a program that does not lower: its message is
// the code.Lower error.
func lowerFailed(cr device.CompileResult) bool {
	return cr.Outcome == device.BuildFailure && strings.HasPrefix(cr.Msg, "code: ")
}

// TestLowerFallback pins what became of the old tree-engine escape hatch:
// a program whose dead-loop defect shape the lowerer cannot express must
// return a lowering error rather than silently mislowering the defect
// model, and the device layer must report that error as a build failure
// on every configuration and level, on the cached and the uncached
// compile path alike. No kernel falls back to the tree walker.
func TestLowerFallback(t *testing.T) {
	_, err := code.Lower(checkedKernel(t, inexpressibleDeadLoop))
	if err == nil {
		t.Fatal("expected a lowering error for the inexpressible dead-loop shape")
	}
	for _, cfg := range device.All() {
		for _, optimize := range []bool{false, true} {
			for name, cr := range map[string]device.CompileResult{
				"cached":   cfg.Compile(inexpressibleDeadLoop, optimize),
				"uncached": cfg.CompileUncached(inexpressibleDeadLoop, optimize),
			} {
				if cr.Outcome != device.BuildFailure || cr.Msg != err.Error() {
					t.Errorf("config %d optimize=%v %s: %v %q, want %v %q",
						cfg.ID, optimize, name, cr.Outcome, cr.Msg, device.BuildFailure, err.Error())
				}
			}
		}
	}
}

// TestLowerCoversPortsAndExhibits pins the zero-fallback premise behind
// total lowering: every benchmark port and every Figure 1/2 exhibit
// lowers on all 21 configurations at both optimization levels, so none of
// them is turned into a lowering build failure.
func TestLowerCoversPortsAndExhibits(t *testing.T) {
	srcs := map[string]string{}
	for _, b := range benchmarks.All() {
		srcs[b.Name] = b.Src
	}
	for _, e := range exhibits.All() {
		srcs["figure "+e.ID] = e.Src
	}
	for name, src := range srcs {
		for _, cfg := range device.All() {
			for _, optimize := range []bool{false, true} {
				if cr := cfg.Compile(src, optimize); lowerFailed(cr) {
					t.Errorf("%s on config %d optimize=%v: %s", name, cfg.ID, optimize, cr.Msg)
				}
			}
		}
	}
}

// TestLowerCoversGeneratorCorpus pins totality over the generator's
// subset across every mode: lowering must succeed for each seed (the
// fuzz target then pins behavioral equivalence).
func TestLowerCoversGeneratorCorpus(t *testing.T) {
	modes := []generator.Mode{
		generator.ModeBasic, generator.ModeVector, generator.ModeBarrier, generator.ModeAll,
	}
	n := int64(20)
	if testing.Short() {
		n = 6
	}
	for _, mode := range modes {
		for seed := int64(0); seed < n; seed++ {
			k := generator.Generate(generator.Options{Mode: mode, Seed: seed, MaxTotalThreads: 16, EMIBlocks: int(seed % 3)})
			prog := checkedKernel(t, k.Src)
			if _, err := code.Lower(prog); err != nil {
				t.Fatalf("mode %v seed %d: %v\n%s", mode, seed, err, k.Src)
			}
		}
	}
}
