package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// runWith compiles and executes src with the given defect set, returning
// the out buffer or the error.
func runWith(t *testing.T, src string, nd exec.NDRange, opts exec.Options) ([]uint64, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, info, err := sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	opts.HasFwdDecl = info.HasFwdDecl
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	err = exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, opts)
	if err != nil {
		return nil, err
	}
	return out.Scalars(), nil
}

// TestSwizzleWrite: single-component swizzles are assignable; multi-
// component reads reorder.
func TestSwizzleWrite(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    int4 v = (int4)(1, 2, 3, 4);
    v.y = 20;
    v.s3 = 40;
    int2 r = (v).s31;
    out[get_linear_global_id()] = (ulong)(uint)(r.x * 100 + r.y);
}
`
	got, err := runWith(t, src, nd1(1, 1), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4020 {
		t.Errorf("out = %d, want 4020 (s3=40, y=20)", got[0])
	}
}

// TestConvertBuiltins: explicit conversions between vector element types.
func TestConvertBuiltins(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    char2 c = (char2)(((char)(-1)), ((char)5));
    int2 wide = convert_int2(c);
    uint2 u = convert_uint2(wide);
    out[get_linear_global_id()] = (ulong)u.x + (ulong)u.y;
}
`
	got, err := runWith(t, src, nd1(1, 1), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0xffffffff) + 5
	if got[0] != want {
		t.Errorf("out = %#x, want %#x", got[0], want)
	}
}

// TestAtomicsVariety exercises every atomic the subset supports within one
// group, then checks the deterministic final state.
func TestAtomicsVariety(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    local uint cell[6];
    size_t lid = get_linear_local_id();
    if (lid == 0UL) {
        for (int i = 0; i < 6; i++) { cell[i] = 8u; }
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    atomic_add(&cell[0], 1u);
    atomic_sub(&cell[1], 1u);
    atomic_min(&cell[2], (uint)lid);
    atomic_max(&cell[3], (uint)lid);
    atomic_and(&cell[4], 12u);
    atomic_or(&cell[5], (uint)(1UL << lid));
    barrier(CLK_LOCAL_MEM_FENCE);
    ulong acc = 0UL;
    if (lid == 0UL) {
        for (int i = 0; i < 6; i++) { acc = acc * 100UL + (ulong)cell[i]; }
    }
    out[get_linear_global_id()] = acc;
}
`
	got, err := runWith(t, src, nd1(4, 4), exec.Options{CheckRaces: true})
	if err != nil {
		t.Fatal(err)
	}
	// cell: 8+4=12, 8-4=4, min(8,0..3)=0, max(8,0..3)=8, 8&12&12..=8, 8|0xf=15.
	want := uint64(12)*1e10 + 4*1e8 + 0*1e6 + 8*1e4 + 8*1e2 + 15
	if got[0] != want {
		t.Errorf("atomic final state %d, want %d", got[0], want)
	}
}

// TestCmpXchg: compare-and-exchange succeeds exactly once per value.
func TestCmpXchg(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    local uint c[1];
    if (get_linear_local_id() == 0UL) { c[0] = 0u; }
    barrier(CLK_LOCAL_MEM_FENCE);
    uint old = atomic_cmpxchg(&c[0], 0u, 7u);
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_linear_global_id()] = (ulong)c[0] * 10UL + (ulong)(old == 0u ? 1u : 0u);
}
`
	got, err := runWith(t, src, nd1(4, 4), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	winners := 0
	for _, v := range got {
		if v%10 == 1 {
			winners++
		}
		if v/10 != 7 {
			t.Errorf("final value %d, want 7", v/10)
		}
	}
	if winners != 1 {
		t.Errorf("%d threads won the cmpxchg, want exactly 1", winners)
	}
}

// TestBarrierLoopTokens: the same syntactic barrier reached with equal
// iteration counts is fine; the divergence checker accepts balanced loops.
func TestBarrierLoopTokens(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    local uint a[2];
    for (int i = 0; i < 3; i++) {
        a[get_linear_local_id()] = (uint)i;
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[get_linear_global_id()] = (ulong)a[0];
}
`
	got, err := runWith(t, src, nd1(2, 2), exec.Options{CheckRaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Errorf("out = %d, want 2", got[0])
	}
}

// TestPointerComparisons: pointer equality follows identity, and null
// tests work.
func TestPointerComparisons(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    int a = 1;
    int b = 1;
    int *p = &a;
    int *q = &a;
    int *r = &b;
    int *z = 0;
    ulong acc = 0UL;
    if (p == q) { acc += 1UL; }
    if (p != r) { acc += 2UL; }
    if (z == 0) { acc += 4UL; }
    if (p != 0) { acc += 8UL; }
    out[get_linear_global_id()] = acc;
}
`
	got, err := runWith(t, src, nd1(1, 1), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 15 {
		t.Errorf("pointer comparison mask = %d, want 15", got[0])
	}
}

// TestNullDerefCrashes: dereferencing null is a crash-class error (the
// kernels that segfault in the paper's campaigns).
func TestNullDerefCrashes(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    int *p = 0;
    out[get_linear_global_id()] = (ulong)*p;
}
`
	_, err := runWith(t, src, nd1(1, 1), exec.Options{})
	if _, ok := err.(*exec.CrashError); !ok {
		t.Errorf("expected CrashError, got %v", err)
	}
}

// TestRecursionBounded: unbounded recursion hits the stack guard, not the
// Go stack.
func TestRecursionBounded(t *testing.T) {
	src := `
int f(int n);
int f(int n) { return f(n + 1); }
kernel void k(global ulong *out) {
    out[get_linear_global_id()] = (ulong)f(0);
}
`
	_, err := runWith(t, src, nd1(1, 1), exec.Options{})
	if err == nil {
		t.Fatal("unbounded recursion terminated")
	}
	switch err.(type) {
	case *exec.CrashError, *exec.TimeoutError:
	default:
		t.Errorf("expected crash or timeout, got %T %v", err, err)
	}
}

// TestCommaDefect: the WCComma defect makes (a, b) evaluate to zero; a
// healthy executor returns b.
func TestCommaDefect(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    int a = 5;
    out[get_linear_global_id()] = (ulong)(uint)((a , 9));
}
`
	got, err := runWith(t, src, nd1(1, 1), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Errorf("healthy comma = %d, want 9", got[0])
	}
	got, err = runWith(t, src, nd1(1, 1), exec.Options{Defects: bugs.WCComma})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("defective comma = %d, want 0 (Figure 2(f) model)", got[0])
	}
}

// TestStructCharFirstDefect: only qualifying struct shapes are corrupted.
func TestStructCharFirstDefect(t *testing.T) {
	src := `
struct Q { char a; char b; short c; };

kernel void k(global ulong *out) {
    struct Q q = { 1, 1, 1 };
    out[get_linear_global_id()] = (ulong)(q.a + q.b + q.c);
}
`
	got, err := runWith(t, src, nd1(1, 1), exec.Options{Defects: bugs.WCStructCharFirst})
	if err != nil {
		t.Fatal(err)
	}
	// b is a char followed by a larger member (short c): b reads 0.
	// a is a char followed by char: unaffected.
	if got[0] != 2 {
		t.Errorf("out = %d, want 2 (only the char-before-larger field zeroes)", got[0])
	}
}

// TestFuelStats: the executor reports the step high-water mark, and it
// is exact: a launch given exactly that many steps per thread times out,
// and one given a single step more completes. A program-scope
// initializer runs with the launch's full budget and its timeout is the
// launch's verdict, so its steps count too; the second kernel's
// initializer charges at least one step per element, more than its body.
func TestFuelStats(t *testing.T) {
	elems := make([]string, 64)
	for i := range elems {
		elems[i] = fmt.Sprint(i)
	}
	for _, k := range []struct {
		name, src string
		min       int64 // plausibility floor for the high-water mark
	}{
		{"loop", `
kernel void k(global ulong *out) {
    int s = 0;
    for (int i = 0; i < 50; i++) { s += i; }
    out[get_linear_global_id()] = (ulong)(uint)s;
}
`, 100},
		{"initializer", "constant ulong tab[64] = {" + strings.Join(elems, ", ") + "};\n" +
			"kernel void k(global ulong *out) { out[get_linear_global_id()] = tab[5]; }\n", 64},
	} {
		prog, err := parser.Parse(k.src)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err = sema.Check(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := code.Lower(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range []*code.Program{nil, lowered} {
			run := func(fuel int64) (exec.Stats, error) {
				var st exec.Stats
				out := exec.NewBuffer(cltypes.TULong, 2)
				err := exec.Run(prog, nd1(2, 2), exec.Args{"out": {Buf: out}}, exec.Options{Fuel: fuel, Code: cp, Stats: &st})
				return st, err
			}
			label := fmt.Sprintf("%s vm=%v", k.name, cp != nil)
			st, err := run(0)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if st.MaxThreadSteps < k.min || st.MaxThreadSteps > 100000 {
				t.Errorf("%s: implausible step count %d", label, st.MaxThreadSteps)
			}
			if _, err := run(st.MaxThreadSteps + 1); err != nil {
				t.Errorf("%s: budget %d (high-water mark + 1): %v", label, st.MaxThreadSteps+1, err)
			}
			if _, err := run(st.MaxThreadSteps); err == nil {
				t.Errorf("%s: budget %d (the high-water mark) did not time out", label, st.MaxThreadSteps)
			}
		}
	}
}

// TestGridValidation: invalid NDRanges are rejected up front.
func TestGridValidation(t *testing.T) {
	bad := []exec.NDRange{
		{Global: [3]int{0, 1, 1}, Local: [3]int{1, 1, 1}},
		{Global: [3]int{5, 1, 1}, Local: [3]int{2, 1, 1}},     // no divide
		{Global: [3]int{512, 1, 1}, Local: [3]int{512, 1, 1}}, // group > 256
	}
	for i, nd := range bad {
		if err := nd.Validate(); err == nil {
			t.Errorf("bad NDRange %d accepted", i)
		}
	}
	good := exec.NDRange{Global: [3]int{8, 4, 2}, Local: [3]int{4, 2, 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("good NDRange rejected: %v", err)
	}
	if good.GlobalLinear() != 64 || good.GroupLinear() != 16 {
		t.Error("linear size computation wrong")
	}
	if g := good.NumGroups(); g != [3]int{2, 2, 1} {
		t.Errorf("NumGroups = %v", g)
	}
}

// TestParseNDRange: the -nd flag form parses into a validated NDRange,
// every invalid geometry is refused before any launch sees it, and a
// formatted geometry parses back as itself.
func TestParseNDRange(t *testing.T) {
	cases := []struct {
		in   string
		want exec.NDRange
		ok   bool
	}{
		{"8x4x2/4x2x2", exec.NDRange{Global: [3]int{8, 4, 2}, Local: [3]int{4, 2, 2}}, true},
		{"16x1x1/0x1x1", exec.NDRange{}, false},      // zero size
		{"-16x1x1/16x1x1", exec.NDRange{}, false},    // negative size
		{"16x1x1/3x1x1", exec.NDRange{}, false},      // local does not divide global
		{"512x1x1/512x1x1", exec.NDRange{}, false},   // group of more than 256
		{"16x1x1", exec.NDRange{}, false},            // no local size
		{"sixteen", exec.NDRange{}, false},           // malformed
		{"16x1x1/16x1x1junk", exec.NDRange{}, false}, // trailing text
	}
	for _, c := range cases {
		nd, err := exec.ParseNDRange(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseNDRange(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && nd != c.want {
			t.Errorf("ParseNDRange(%q) = %+v, want %+v", c.in, nd, c.want)
		}
	}
	// What FormatNDRange writes, ParseNDRange reads back as the same
	// geometry: clsmith's .nd files are valid -nd values.
	nd := exec.NDRange{Global: [3]int{12, 3, 1}, Local: [3]int{4, 1, 1}}
	if back, err := exec.ParseNDRange(exec.FormatNDRange(nd)); err != nil || back != nd {
		t.Errorf("ParseNDRange(FormatNDRange(%+v)) = %+v, %v", nd, back, err)
	}
}

// TestMultiGroupIsolation: local memory is per work-group.
func TestMultiGroupIsolation(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    local uint a[2];
    a[get_linear_local_id()] = (uint)(get_linear_group_id() + 1UL);
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_linear_global_id()] = (ulong)a[0];
}
`
	got, err := runWith(t, src, nd1(4, 2), exec.Options{CheckRaces: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d (local memory must be per group)", i, got[i], want[i])
		}
	}
}
