package opt_test

import (
	"strings"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/benchmarks"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/generator"
	"clfuzz/internal/opt"
	"clfuzz/internal/oracle"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// compileSrc parses and checks a kernel (tests' front-end shortcut).
func compileSrc(t *testing.T, src string) *ast.Program {
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

// TestOptimizerPreservesSemantics is the central compiler-correctness
// property: the defect-free optimizer must not change the result of any
// generated kernel. (The configuration-level variant of this is what the
// whole paper tests for real compilers.)
func TestOptimizerPreservesSemantics(t *testing.T) {
	ref := device.Reference()
	for _, mode := range generator.Modes {
		for seed := int64(300); seed < 306; seed++ {
			k := generator.Generate(generator.Options{Mode: mode, Seed: seed, MaxTotalThreads: 48})
			var outs [][]uint64
			for _, optimize := range []bool{false, true} {
				cr := ref.Compile(k.Src, optimize)
				if cr.Outcome != device.OK {
					t.Fatalf("%s seed %d: compile: %s", mode, seed, cr.Msg)
				}
				args, result := k.Buffers()
				rr := cr.Kernel.Run(k.ND, args, result, device.RunOptions{})
				if rr.Outcome != device.OK {
					t.Fatalf("%s seed %d opt=%v: run: %s", mode, seed, optimize, rr.Msg)
				}
				outs = append(outs, rr.Output)
			}
			if !oracle.Equal(outs[0], outs[1]) {
				t.Fatalf("%s seed %d: optimizer changed the result\n%s", mode, seed, k.Src)
			}
		}
	}
}

// TestConstFold checks folding of literal arithmetic with exact evaluator
// semantics.
func TestConstFold(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"(1 + 2 * 3)", "7"},
		{"safe_div(10, 0)", "10"},                             // safe-math fallback folds too
		{"safe_add(2147483647, 1)", "18446744071562067968UL"}, // wraps, then the outer ulong cast folds
		{"(7 > 3)", "1"},
		{"(0 && (1 / 0))", "0"},                   // short-circuit makes the fold legal
		{"rotate(1u, 0u)", "1UL"},                 // folds through the outer cast
		{"((char)200)", "18446744073709551560UL"}, // -56 sign-extends through the ulong cast
		{"safe_clamp(5, 10, 2)", "5"},             // min>max: safe fallback to x
		{"(1 ? 11 : 22)", "11"},
	}
	for _, c := range cases {
		src := "kernel void k(global ulong *out) { out[0] = (ulong)" + c.expr + "; }"
		prog := compileSrc(t, src)
		prog = opt.ConstFold(prog, 0)
		printed := ast.Print(prog)
		if !strings.Contains(printed, c.want) {
			t.Errorf("folding %s: want %q in output:\n%s", c.expr, c.want, printed)
		}
	}
}

// TestDeadCodeElim checks branch and loop elimination.
func TestDeadCodeElim(t *testing.T) {
	src := `kernel void k(global ulong *out) {
		out[0] = 1UL;
		if (0) { out[0] = 2UL; }
		if (1) { out[0] = 3UL; } else { out[0] = 4UL; }
		while (0) { out[0] = 5UL; }
		for (int i = 0; 0; i++) { out[0] = 6UL; }
		return;
		out[0] = 7UL;
	}`
	prog := compileSrc(t, src)
	prog = opt.DeadCodeElim(prog, 0)
	printed := ast.Print(prog)
	for _, gone := range []string{"2UL", "4UL", "5UL", "6UL", "7UL"} {
		if strings.Contains(printed, gone) {
			t.Errorf("dead code %s survived:\n%s", gone, printed)
		}
	}
	if !strings.Contains(printed, "3UL") {
		t.Errorf("live code eliminated:\n%s", printed)
	}
}

// TestAlgebraicPurity: x*0 folds only when x is pure.
func TestAlgebraicPurity(t *testing.T) {
	src := `struct S0 { int a; };
	int f(struct S0 *g) { g->a = 9; return 1; }
	kernel void k(global ulong *out) {
		struct S0 s = {0};
		int dead = f(&s) * 0;
		out[0] = (ulong)(uint)(s.a + dead);
	}`
	prog := compileSrc(t, src)
	prog = opt.Algebraic(prog, 0)
	printed := ast.Print(prog)
	if !strings.Contains(printed, "f((&s))") {
		t.Errorf("impure multiplication by zero was folded away:\n%s", printed)
	}
	// But a pure x*0 must fold.
	src2 := `kernel void k(global ulong *out) { int x = 3; out[0] = (ulong)(uint)(x * 0); }`
	prog2 := compileSrc(t, src2)
	prog2 = opt.Algebraic(prog2, 0)
	if strings.Contains(ast.Print(prog2), "x * 0") {
		t.Error("pure x*0 not simplified")
	}
}

// TestUnroll checks the canonical counted loop unrolls and stays correct.
func TestUnroll(t *testing.T) {
	src := `kernel void k(global ulong *out) {
		int sum = 0;
		for (int i = 0; i < 4; i++) { sum += i; }
		out[0] = (ulong)(uint)sum;
	}`
	prog := compileSrc(t, src)
	prog = opt.UnrollLoops(prog, 0)
	printed := ast.Print(prog)
	if strings.Contains(printed, "for (") {
		t.Errorf("small counted loop not unrolled:\n%s", printed)
	}
	// Semantics preserved: run both versions.
	ref := device.Reference()
	run := func(s string) uint64 {
		cr := ref.Compile(s, false)
		if cr.Outcome != device.OK {
			t.Fatalf("compile: %s", cr.Msg)
		}
		out := newOut(1)
		rr := cr.Kernel.Run(nd1(), argsOut(out), out, device.RunOptions{})
		if rr.Outcome != device.OK {
			t.Fatalf("run: %s", rr.Msg)
		}
		return rr.Output[0]
	}
	if a, b := run(src), run(printed); a != b || a != 6 {
		t.Errorf("unroll changed semantics: %d vs %d", a, b)
	}
}

// TestDeadCodeElimNestedDeadIf: a literal-true if whose body dies
// entirely (the shape ConstFold produces from folded comparisons) must
// vanish, not leave a typed-nil block statement that crashes the printer
// or the executor.
func TestDeadCodeElimNestedDeadIf(t *testing.T) {
	src := `kernel void k(global ulong *out) {
		out[0] = 1UL;
		if (1) { if (0) { out[0] = 2UL; } }
	}`
	prog := compileSrc(t, src)
	prog = opt.DeadCodeElim(prog, 0)
	printed := ast.Print(prog) // must not panic on a nil statement
	if strings.Contains(printed, "2UL") {
		t.Errorf("dead nested if survived:\n%s", printed)
	}
}

// TestOptimizeAfterExecutionSharesProgram pins the shared-program flow of
// the device back cache: one configuration may RUN the checked program
// before another configuration OPTIMIZES that same program. Executing a
// program must leave nothing behind that the optimizer's rewrites (here
// unrolling, whose clones land in new scope chains next to a same-named
// outer variable) could carry into the optimized variant, which here
// would corrupt a differential verdict.
func TestOptimizeAfterExecutionSharesProgram(t *testing.T) {
	src := `kernel void k(global ulong *out) {
		int i = 100;
		ulong acc = 0UL;
		for (int i2 = 0; i2 < 4; i2++) {
			for (int j = 0; j < 2; j++) { acc += (ulong)(uint)(i2 + i); }
		}
		out[0] = acc;
	}`
	run := func(p *ast.Program) uint64 {
		out := newOut(1)
		if err := exec.Run(p, nd1(), argsOut(out), exec.Options{NoBarrier: true}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.Scalar(0)
	}
	prog := compileSrc(t, src)
	want := run(prog) // execute the shared checked program first
	oprog := opt.Optimize(prog, 0)
	if got := run(oprog); got != want {
		t.Fatalf("optimizing a previously executed shared program changed the result: %d != %d", got, want)
	}
	if again := run(prog); again != want {
		t.Fatalf("unoptimized shared program changed after optimization: %d != %d", again, want)
	}
}

// TestUnrollRefusals: loops the unroller must not touch.
func TestUnrollRefusals(t *testing.T) {
	srcs := []string{
		// induction variable modified in the body
		`kernel void k(global ulong *out) { int s = 0; for (int i = 0; i < 4; i++) { i = i; s++; } out[0] = (ulong)(uint)s; }`,
		// break binds to the loop
		`kernel void k(global ulong *out) { int s = 0; for (int i = 0; i < 4; i++) { if (i > 1) { break; } s++; } out[0] = (ulong)(uint)s; }`,
		// barrier inside (unrolling would change barrier identity)
		`kernel void k(global ulong *out) { for (int i = 0; i < 2; i++) { barrier(CLK_LOCAL_MEM_FENCE); } out[0] = 0UL; }`,
		// trip count too large
		`kernel void k(global ulong *out) { int s = 0; for (int i = 0; i < 100; i++) { s++; } out[0] = (ulong)(uint)s; }`,
	}
	for i, src := range srcs {
		prog := compileSrc(t, src)
		prog = opt.UnrollLoops(prog, 0)
		if !strings.Contains(ast.Print(prog), "for (") {
			t.Errorf("case %d: loop was unrolled but must not be", i)
		}
	}
}

// TestRotateFoldDefect: the Figure 2(b) defect rewrites literal rotates to
// all-ones, but only when armed.
func TestRotateFoldDefect(t *testing.T) {
	src := `kernel void k(global ulong *out) {
		out[0] = (ulong)(rotate((uint2)(1, 1), (uint2)(0, 0))).x;
	}`
	prog := compileSrc(t, src)
	prog = opt.EarlyFolds(prog, bugs.WCRotateConstFold, 0)
	if !strings.Contains(ast.Print(prog), "4294967295u") {
		t.Errorf("rotate defect did not fold to all-ones:\n%s", ast.Print(prog))
	}
	prog2 := compileSrc(t, src)
	prog2 = opt.EarlyFolds(prog2, 0, 0)
	if strings.Contains(ast.Print(prog2), "4294967295u") {
		t.Error("healthy front end corrupted rotate")
	}
}

// TestFoldDefects pins what the fold stage keys on: opt.FoldDefects
// names each fold model a checked program can trigger, so the back cache
// builds one program for every defect set that differs only outside it.
// The Figure 2(b) exhibit reads a swizzle of a rotate call, the Figure
// 2(e) exhibit's source is tuned to pass the group-id gate, and a port
// gives no fold model anything to act on. A rotate counts only when both
// its operands are literal, the shape the rotate fold acts on.
func TestFoldDefects(t *testing.T) {
	cases := []struct {
		name, src string
		want      bugs.Set
	}{
		{"fig2b", exhibits.ByID("2b").Src, bugs.WCRotateConstFold | bugs.WCSwizzleFold},
		{"fig2e", exhibits.ByID("2e").Src, bugs.WCGroupIDExpr},
		{"literal swizzle", `kernel void k(global ulong *out) {
			out[0] = (ulong)((uint4)(1, 2, 3, 4)).y;
		}`, bugs.WCSwizzleFold},
		{"literal rotate", `kernel void k(global uint *out) {
			out[0] = rotate(1u, 3u);
		}`, bugs.WCRotateConstFold},
		{"rotate of a variable", `kernel void k(global uint *out) {
			uint x = out[1];
			out[0] = rotate(x, 3u);
		}`, 0},
		{"rotate by a variable", `kernel void k(global uint *out) {
			out[0] = rotate(1u, out[1]);
		}`, 0},
		{"literal rotate nested in a rotate", `kernel void k(global uint *out) {
			out[0] = rotate(rotate(1u, 3u), out[1]);
		}`, bugs.WCRotateConstFold},
		{"port " + benchmarks.BFS().Name, benchmarks.BFS().Src, 0},
	}
	for _, c := range cases {
		fe := device.ParseFrontEnd(c.src)
		if fe.Err != nil {
			t.Fatalf("%s: parse: %v", c.name, fe.Err)
		}
		prog, _, err := sema.Check(fe.Prog, 0)
		if err != nil {
			t.Fatalf("%s: sema: %v", c.name, err)
		}
		if got := opt.FoldDefects(prog, fe.Hash); got != c.want {
			t.Errorf("%s: FoldDefects = %#x, want %#x", c.name, got, c.want)
		}
	}
	// The group-id model is gated on the source hash: a hash that fails
	// the gate drops the bit.
	fe := device.ParseFrontEnd(exhibits.ByID("2e").Src)
	prog, _, err := sema.Check(fe.Prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	hash := uint64(0)
	for opt.GroupIDGate(hash) {
		hash++
	}
	if got := opt.FoldDefects(prog, hash); got != 0 {
		t.Errorf("fig2e with a hash that fails the group-id gate: FoldDefects = %#x, want none", got)
	}
}

// TestIsPure classifies side effects correctly.
func TestIsPure(t *testing.T) {
	pure := []string{"1 + 2", "safe_add(a, b)", "get_group_id(0)", "(a ? b : c)"}
	impure := []string{"a = 1", "a++", "f(a)", "(a , b++)"}
	for _, s := range pure {
		e, err := parser.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.IsPure(e) {
			t.Errorf("%q misclassified as impure", s)
		}
	}
	for _, s := range impure {
		e, err := parser.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		if opt.IsPure(e) {
			t.Errorf("%q misclassified as pure", s)
		}
	}
}

func nd1() exec.NDRange {
	return exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}}
}

func newOut(n int) *exec.Buffer { return exec.NewBuffer(cltypes.TULong, n) }

func argsOut(out *exec.Buffer) exec.Args { return exec.Args{"out": {Buf: out}} }
