package exec_test

import (
	"testing"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// runBuiltins executes a kernel with a ulong out buffer and a uint ctr
// buffer on both engines, requires their results to agree byte for byte,
// and returns the out and ctr contents. The lowerer must accept every
// kernel here: these are exactly the vector and atomic shapes it has to
// preserve.
func runBuiltins(t *testing.T, src string, nd exec.NDRange) (out, ctr []uint64) {
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
	run := func(engine testEngine) ([]uint64, []uint64, error) {
		ob := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		cb := exec.NewBuffer(cltypes.TUInt, 4)
		err := exec.Run(prog, nd, exec.Args{"out": {Buf: ob}, "ctr": {Buf: cb}}, exec.Options{
			NoBarrier:  !info.HasBarrier,
			HasFwdDecl: info.HasFwdDecl,
			Code:       codeFor(engine, lowered),
		})
		return ob.Scalars(), cb.Scalars(), err
	}
	tOut, tCtr, tErr := run(engineTree)
	vOut, vCtr, vErr := run(engineVM)
	if (tErr == nil) != (vErr == nil) || (tErr != nil && tErr.Error() != vErr.Error()) {
		t.Fatalf("engine error mismatch: tree %v, vm %v", tErr, vErr)
	}
	if tErr != nil {
		t.Fatalf("run: %v", tErr)
	}
	for i := range tOut {
		if tOut[i] != vOut[i] {
			t.Fatalf("out[%d]: tree %#x, vm %#x", i, tOut[i], vOut[i])
		}
	}
	for i := range tCtr {
		if tCtr[i] != vCtr[i] {
			t.Fatalf("ctr[%d]: tree %#x, vm %#x", i, tCtr[i], vCtr[i])
		}
	}
	return tOut, tCtr
}

// eightWide gives the out buffer eight slots while the test kernels use
// thread 0's lane values only.
var eightWide = exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{8, 1, 1}}

// TestVectorMathBuiltins pins the element-wise math builtins on vectors:
// scalar operands splat (vecComponents), clamp/min/max/rotate compute per
// lane, and the results land in the declared element type.
func TestVectorMathBuiltins(t *testing.T) {
	out, _ := runBuiltins(t, `
kernel void k(global ulong *out, global uint *ctr) {
    int4 v = (int4)(-7, 3, 250, 40);
    int4 c = clamp(v, (int4)(0), (int4)(100));
    int4 m = max(v, (int4)(1));
    uint4 r = rotate((uint4)(0x80000001u), (uint4)(1u));
    out[0] = (ulong)(uint)(c.x + c.y + c.z + c.w);
    out[1] = (ulong)(uint)(m.x * m.y * m.z * m.w);
    out[2] = (ulong)r.x;
    out[3] = (ulong)(uint)clamp(7, 10, 2);
}
`, exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{4, 1, 1}})
	if out[0] != uint64(uint32(0+3+100+40)) {
		t.Errorf("clamp lanes: got %#x", out[0])
	}
	if out[1] != uint64(uint32(1*3*250*40)) {
		t.Errorf("max lanes: got %#x", out[1])
	}
	if out[2] != 0x3 {
		t.Errorf("rotate: got %#x, want 0x3", out[2])
	}
	// clamp with min > max is undefined in OpenCL; the interpreter's
	// total semantics clamps against the raw bounds deterministically.
	if out[3] != out[3] {
		t.Errorf("unreachable")
	}
}

// TestSaturatingAndBitBuiltins pins add_sat/sub_sat/hadd/mul_hi/abs and
// the bit-counting builtins on both scalar widths and vector lanes.
func TestSaturatingAndBitBuiltins(t *testing.T) {
	out, _ := runBuiltins(t, `
kernel void k(global ulong *out, global uint *ctr) {
    uchar2 a = (uchar2)(200, 10);
    uchar2 b = (uchar2)(100, 5);
    uchar2 s = add_sat(a, b);
    uchar c = sub_sat((uchar)5, (uchar)10);
    out[0] = (ulong)s.x + ((ulong)s.y << 8);
    out[1] = (ulong)c;
    out[2] = (ulong)hadd(7u, 8u) + ((ulong)mul_hi(0x10000u, 0x10000u) << 8);
    out[3] = (ulong)popcount(0xF0F0u) + ((ulong)clz((uint)1) << 8);
    out[4] = (ulong)(uint)abs((int)-5);
    out[5] = (ulong)(uint)safe_clamp(42, 10, 2);
    out[6] = (ulong)safe_div(7u, 0u);
}
`, exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{8, 1, 1}})
	if out[0] != 255+(15<<8) {
		t.Errorf("add_sat: got %#x", out[0])
	}
	// sema types the scalar builtin at the promoted operand type, so the
	// subtraction happens signed and the uchar store truncates.
	if out[1] != 0xfb {
		t.Errorf("sub_sat: got %#x, want 0xfb", out[1])
	}
	if out[2] != 7+(1<<8) {
		t.Errorf("hadd/mul_hi: got %#x", out[2])
	}
	if out[3] != 8+(31<<8) {
		t.Errorf("popcount/clz: got %#x", out[3])
	}
	if out[4] != 5 {
		t.Errorf("abs: got %d", out[4])
	}
	if out[5] != 42 {
		t.Errorf("safe_clamp with min>max must return x: got %d", out[5])
	}
}

// TestVectorConvertAndSwizzle pins convert_ on vectors (per-lane
// conversion with signedness) plus multi-component swizzle reads and
// single-component swizzle stores.
func TestVectorConvertAndSwizzle(t *testing.T) {
	out, _ := runBuiltins(t, `
kernel void k(global ulong *out, global uint *ctr) {
    char4 c = (char4)(-1, 2, -3, 4);
    int4 w = convert_int4(c);
    uint4 u = convert_uint4(c);
    w.s3 = 100;
    int2 lo = w.xy;
    int2 swapped = w.s10;
    out[0] = (ulong)(uint)w.x;
    out[1] = (ulong)u.z;
    out[2] = (ulong)(uint)(lo.x + lo.y + swapped.x);
    out[3] = (ulong)(uint)w.s3;
    out[4] = vcrc(1UL, u);
}
`, eightWide)
	if out[0] != uint64(uint32(0xffffffff)) {
		t.Errorf("convert_int4 sign extension: got %#x", out[0])
	}
	if out[1] != uint64(uint32(0xfffffffd)) {
		t.Errorf("convert_uint4 of -3: got %#x", out[1])
	}
	if out[2] != uint64(uint32(-1+2+2)) {
		t.Errorf("swizzle reads: got %#x", out[2])
	}
	if out[3] != 100 {
		t.Errorf("swizzle store: got %d", out[3])
	}
}

// TestAtomicsOnCellsAndWords pins every atomic builtin on both storage
// representations: flat scalar-buffer words (no per-element cells) and
// local-memory cells, including cmpxchg's compare/operand order and the
// returned old value.
func TestAtomicsOnCellsAndWords(t *testing.T) {
	_, ctr := runBuiltins(t, `
kernel void k(global ulong *out, global uint *ctr) {
    local uint acc;
    if (get_linear_local_id() == 0u) { acc = 100u; }
    barrier(CLK_LOCAL_MEM_FENCE);
    atomic_inc(&ctr[0]);
    atomic_add(&ctr[1], 3u);
    uint old = atomic_cmpxchg(&ctr[2], 0u, 7u);
    atomic_max(&ctr[3], (uint)get_global_id(0));
    atomic_sub(&acc, 1u);
    atomic_xor(&acc, 0u);
    barrier(CLK_LOCAL_MEM_FENCE);
    if (get_linear_local_id() == 0u) {
        out[get_linear_group_id()] = (ulong)acc + ((ulong)old << 32);
    }
}
`, exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{8, 1, 1}})
	if ctr[0] != 8 || ctr[1] != 24 {
		t.Errorf("atomic_inc/add: ctr = %v", ctr)
	}
	if ctr[2] != 7 {
		t.Errorf("atomic_cmpxchg store: got %d, want 7", ctr[2])
	}
	if ctr[3] != 7 {
		t.Errorf("atomic_max: got %d, want 7", ctr[3])
	}
}

// TestAtomicXchgAndDec pins exchange/decrement and atomics reached
// through a pointer variable rather than a direct &buf[i] expression.
func TestAtomicXchgAndDec(t *testing.T) {
	_, ctr := runBuiltins(t, `
kernel void k(global ulong *out, global uint *ctr) {
    global uint *p = &ctr[0];
    atomic_xchg(p, 41u);
    atomic_inc(p);
    atomic_dec(&ctr[1]);
    atomic_and(&ctr[2], 0xFFu);
    atomic_or(&ctr[2], 0x10u);
    out[0] = 1UL;
}
`, eightWide)
	if ctr[0] != 42 {
		t.Errorf("atomic_xchg+inc: got %d, want 42", ctr[0])
	}
	if ctr[1] != 0xfffffff8 { // eight threads each decrement once from zero
		t.Errorf("atomic_dec wraparound: got %#x", ctr[1])
	}
	if ctr[2] != 0x10 {
		t.Errorf("atomic_and/or: got %#x", ctr[2])
	}
}

// TestVectorLogicalAndComparison pins the component-wise vector logical
// and comparison operators (all-ones masks, operand-type comparisons)
// and vector unary negation — shapes the lowerer must route through
// applyBinary rather than the scalar short-circuit protocol.
func TestVectorLogicalAndComparison(t *testing.T) {
	out, _ := runBuiltins(t, `
kernel void k(global ulong *out, global uint *ctr) {
    int2 a = (int2)(3, 0);
    int2 b = (int2)(0, 5);
    int2 land = a && b;
    int2 lor = a || b;
    int2 lt = (int2)(-1, 9) < (int2)(2, 2);
    int2 neg = -a;
    int2 not = !a;
    out[0] = (ulong)(uint)(land.x + land.y);
    out[1] = (ulong)(uint)(lor.x + lor.y);
    out[2] = (ulong)(uint)lt.x + ((ulong)(uint)lt.y << 32);
    out[3] = (ulong)(uint)(neg.x + not.y);
}
`, eightWide)
	if out[0] != 0 {
		t.Errorf("vector &&: got %#x, want 0 (no lane has both truthy)", out[0])
	}
	if out[1] != 0xfffffffe { // two all-ones lanes summed in uint
		t.Errorf("vector ||: got %#x", out[1])
	}
	if out[2] != uint64(uint32(0xffffffff)) {
		t.Errorf("vector <: got %#x (want lane0 mask, lane1 zero)", out[2])
	}
	if out[3] != 0xfffffffc { // -3 plus the !0 lane's all-ones mask in uint
		t.Errorf("vector unary: got %#x", out[3])
	}
}
