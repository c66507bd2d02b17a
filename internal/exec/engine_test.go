package exec_test

import (
	"fmt"
	"testing"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// launchEngine compiles src, lowers it, and executes it on the given
// engine, returning the out-buffer contents and the run error. lockstep
// withholds the front end's NoBarrier guarantee, which puts work-groups
// of more than one thread on the goroutine-per-thread schedule even when
// the kernel is barrier-free.
func launchEngine(t *testing.T, src string, nd exec.NDRange, engine testEngine, fuel int64, lockstep bool) ([]uint64, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, info, err := sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	lowered, err := code.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	args := exec.Args{"out": {Buf: out}}
	runErr := exec.Run(prog, nd, args, exec.Options{
		NoBarrier:  !info.HasBarrier && !lockstep,
		HasFwdDecl: info.HasFwdDecl,
		Fuel:       fuel,
		Code:       codeFor(engine, lowered),
	})
	return out.Scalars(), runErr
}

// testEngine names the evaluation engine a test launch takes.
type testEngine string

const (
	engineTree testEngine = "tree"
	engineVM   testEngine = "vm"
)

// codeFor returns the bytecode a launch on engine is handed: the executor
// runs the VM exactly when a launch carries Code, so the tree walker gets
// none.
func codeFor(engine testEngine, cp *code.Program) *code.Program {
	if engine == engineTree {
		return nil
	}
	return cp
}

// engineKernels covers constructs beyond the parallel set: user calls
// with aggregates, short-circuit evaluation, ternaries, do-while loops,
// compound assignment, vector swizzles, unions, and pointer arithmetic.
var engineKernels = []struct {
	name string
	src  string
}{
	{"control-flow", `
kernel void k(global ulong *out) {
    ulong acc = 0;
    int i = 0;
    do { acc += (ulong)i; i++; } while (i < 5);
    for (int j = 9; j > 0; j--) {
        if (j == 5) continue;
        if (j == 2) break;
        acc = acc * 3UL + (ulong)j;
    }
    while (i < 20) { i += 3; }
    acc += (i > 10 && acc > 0UL) ? 7UL : 11UL;
    acc += (i < 0 || acc == 0UL) ? 13UL : 17UL;
    out[get_linear_global_id()] = acc + (ulong)(1, 2, 3);
}
`},
	{"calls-and-aggregates", `
struct P { int x; int y; };
int weigh(struct P p, int k) {
    if (k == 0) { return p.x; }
    return p.y * weigh(p, k - 1);
}
kernel void k(global ulong *out) {
    struct P p = { (int)get_global_id(0) + 1, 3 };
    int arr[3] = { 2, 4, 6 };
    arr[1] += weigh(p, 2);
    p.x = arr[1];
    struct P q = p;
    out[get_linear_global_id()] = (ulong)q.x + (ulong)q.y;
}
`},
	{"vectors", `
kernel void k(global ulong *out) {
    int4 v = (int4)(1, 2, 3, (int)get_global_id(0));
    int4 w = v * v + (int4)(5);
    w.x = -w.y;
    int2 pair = w.xw;
    ulong h = vcrc(0UL, convert_uint4(w));
    out[get_linear_global_id()] = h + (ulong)(uint)(pair.x + pair.y) + (ulong)max(3, clamp(v.z, 0, 2));
}
`},
	{"unions-and-pointers", `
struct Half { uchar lo; uchar hi; };
union U { uint wide; struct Half parts; };
kernel void k(global ulong *out) {
    union U u = { 0x1234u + (uint)get_global_id(0) };
    uint lo = (uint)u.parts.lo;
    ulong tmp = 5UL;
    ulong *p = &tmp;
    *p += (ulong)lo;
    size_t gid = get_linear_global_id();
    out[gid] = crc64(tmp, (long)u.wide);
}
`},
}

// TestVMMatchesTree pins the central engine invariant at the exec level:
// the register VM and the tree walker produce byte-identical buffer
// contents and identical errors on every kernel shape, including under
// tight fuel (identical fuel accounting).
func TestVMMatchesTree(t *testing.T) {
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
	nds := []exec.NDRange{
		{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}},
		{Global: [3]int{8, 2, 1}, Local: [3]int{2, 2, 1}},
	}
	all := append(append([]struct{ name, src string }{}, parallelKernels...), engineKernels...)
	for _, k := range all {
		for _, nd := range nds {
			for _, fuel := range []int64{0, 700} {
				want, wantErr := launchEngine(t, k.src, nd, engineTree, fuel, false)
				got, gotErr := launchEngine(t, k.src, nd, engineVM, fuel, false)
				label := fmt.Sprintf("%s nd=%v fuel=%d", k.name, nd.Global, fuel)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: vm err %v, tree err %v", label, gotErr, wantErr)
				}
				if gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: vm err %q, tree err %q", label, gotErr, wantErr)
				}
				if wantErr == nil {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: out[%d] = %d, want %d", label, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
