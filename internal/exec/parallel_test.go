package exec_test

import (
	"fmt"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// launch compiles and executes src over nd with a ulong out buffer, using
// the front-end guarantees (NoBarrier/NoAtomics) the device layer would
// pass, and returns the buffer contents and the run error. The program is
// lowered and executed on the given engine, so the parallel-determinism
// suite pins the tree walker and the register VM alike.
func launch(t *testing.T, src string, nd exec.NDRange, workers int, engine exec.Engine) ([]uint64, error) {
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
		NoBarrier:  !info.HasBarrier,
		NoAtomics:  !info.HasAtomic,
		HasFwdDecl: info.HasFwdDecl,
		Workers:    workers,
		Code:       codeFor(engine, lowered),
	})
	return out.Scalars(), runErr
}

// parallelKernels is the kernel set the work-group fan-out is compared on:
// barrier-free compute, barrier synchronization over local memory, private
// aggregates, and flat-buffer pointer arithmetic.
var parallelKernels = []struct {
	name string
	src  string
}{
	{"compute", `
kernel void k(global ulong *out) {
    ulong acc = 1;
    for (int i = 0; i < 40; i++) {
        acc = acc * 33UL + get_global_id(0) + i;
    }
    out[get_linear_global_id()] = acc;
}
`},
	{"barrier-local", `
kernel void k(global ulong *out) {
    local uint comm[8];
    comm[get_linear_local_id()] = (uint)get_global_id(0) + 1u;
    barrier(CLK_LOCAL_MEM_FENCE);
    ulong acc = 0;
    for (int i = 0; i < 8; i++) {
        acc += comm[i];
    }
    out[get_linear_global_id()] = acc + get_group_id(0);
}
`},
	{"flat-pointers", `
ulong probe(global ulong *p) {
    return p[0] + 1UL;
}
kernel void k(global ulong *out) {
    size_t gid = get_linear_global_id();
    out[gid] = gid * 3UL;
    global ulong *slot = &out[gid];
    ulong same = (slot == &out[gid]) ? 100UL : 200UL;
    ulong first = (slot == out) ? 1000UL : 0UL;
    *slot = *slot + probe(slot) + same + first;
}
`},
	{"private-aggregates", `
struct S { int a; ulong b; };
kernel void k(global ulong *out) {
    struct S s = { (int)get_global_id(0), 7UL };
    struct S copy = s;
    int arr[4] = { 1, 2, 3, 4 };
    arr[(int)get_global_id(0) % 4] += copy.a;
    out[get_linear_global_id()] = (ulong)arr[0] + (ulong)arr[3] + copy.b;
}
`},
}

// TestParallelGroupsDeterministic is the fan-out half of the executor's
// central invariant: an eligible launch (no atomics, races unchecked) must
// produce byte-identical buffer contents whether work-groups run serially
// or concurrently across any worker count. Run with -race this also
// verifies the shared-cell atomic discipline of the parallel path.
func TestParallelGroupsDeterministic(t *testing.T) {
	// Verify the read-only-AST contract on every launch of this test: the
	// same checked program is run at several worker budgets, exactly the
	// sharing pattern the back cache produces at campaign scale.
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
	nds := []exec.NDRange{
		{Global: [3]int{64, 1, 1}, Local: [3]int{8, 1, 1}},
		{Global: [3]int{16, 4, 1}, Local: [3]int{4, 2, 1}},
	}
	for _, k := range parallelKernels {
		for _, nd := range nds {
			// The serial tree walk is the reference; every engine and
			// worker-budget combination must reproduce it byte for byte.
			want, wantErr := launch(t, k.src, nd, 1, exec.EngineTree)
			for _, engine := range []exec.Engine{exec.EngineTree, exec.EngineVM} {
				for _, workers := range []int{1, 2, 8} {
					got, gotErr := launch(t, k.src, nd, workers, engine)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s engine=%s workers=%d: err %v, want %v", k.name, engine, workers, gotErr, wantErr)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s engine=%s workers=%d: out[%d] = %d, want %d", k.name, engine, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelGroupsErrorOrder checks the launch verdict under failures:
// the parallel path must report the error of the lowest-numbered failing
// group — the one the serial schedule would have hit first — even when a
// later group fails differently (here group 1 times out while group 3
// crashes on an out-of-bounds store).
func TestParallelGroupsErrorOrder(t *testing.T) {
	src := `
kernel void k(global ulong *out) {
    size_t g = get_group_id(0);
    if (g == 1) {
        ulong acc = 0;
        while (1) { acc += 1; }
        out[0] = acc;
    }
    if (g == 3) {
        out[1000000] = 1UL;
    }
    out[get_linear_global_id()] = g;
}
`
	nd := exec.NDRange{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}}
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
	runWith := func(workers int, engine exec.Engine) error {
		out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		return exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
			NoBarrier: !info.HasBarrier,
			NoAtomics: !info.HasAtomic,
			Fuel:      50_000,
			Workers:   workers,
			Code:      codeFor(engine, lowered),
		})
	}
	serial := runWith(1, exec.EngineTree)
	if _, ok := serial.(*exec.TimeoutError); !ok {
		t.Fatalf("serial error = %v (%T), want timeout from group 1", serial, serial)
	}
	for _, engine := range []exec.Engine{exec.EngineTree, exec.EngineVM} {
		for _, workers := range []int{1, 2, 8} {
			parallel := runWith(workers, engine)
			if _, ok := parallel.(*exec.TimeoutError); !ok {
				t.Fatalf("engine=%s workers=%d error = %v (%T), want timeout from group 1", engine, workers, parallel, parallel)
			}
			if parallel.Error() != serial.Error() {
				t.Fatalf("engine=%s workers=%d error %q, want %q", engine, workers, parallel.Error(), serial.Error())
			}
		}
	}
}

// TestAtomicsStaySerial pins the eligibility rule: a kernel using atomic
// builtins — the one defined cross-group communication channel — must not
// fan out, because atomic ordering across groups is schedule-dependent.
// The observable contract is that results with any worker budget equal the
// serial schedule's.
func TestAtomicsStaySerial(t *testing.T) {
	src := `
kernel void k(global ulong *out, global uint *ctr) {
    uint ticket = atomic_inc(&ctr[0]);
    out[get_linear_global_id()] = (ulong)ticket;
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, info, err := sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	if !info.HasAtomic {
		t.Fatal("sema did not flag the atomic builtin")
	}
	nd := exec.NDRange{Global: [3]int{32, 1, 1}, Local: [3]int{1, 1, 1}}
	runWith := func(workers int) []uint64 {
		out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		ctr := exec.NewBuffer(cltypes.TUInt, 1)
		err := exec.Run(prog, nd, exec.Args{"out": {Buf: out}, "ctr": {Buf: ctr}}, exec.Options{
			NoBarrier: !info.HasBarrier,
			NoAtomics: !info.HasAtomic,
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out.Scalars()
	}
	want := runWith(1)
	got := runWith(8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("atomic kernel diverged under a worker budget: out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestFlatBufferAtomics covers read-modify-write atomics landing on flat
// scalar-buffer elements (the representation has no per-element cells).
func TestFlatBufferAtomics(t *testing.T) {
	src := `
kernel void k(global ulong *out, global uint *ctr) {
    atomic_add(&ctr[0], 2u);
    atomic_max(&ctr[1], (uint)get_global_id(0));
    uint old = atomic_cmpxchg(&ctr[2], 0u, 9u);
    out[get_linear_global_id()] = (ulong)old;
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, _, err = sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	nd := exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{8, 1, 1}}
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	ctr := exec.NewBuffer(cltypes.TUInt, 3)
	if err := exec.Run(prog, nd, exec.Args{"out": {Buf: out}, "ctr": {Buf: ctr}}, exec.Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := ctr.Scalar(0); got != 16 {
		t.Errorf("ctr[0] = %d, want 16", got)
	}
	if got := ctr.Scalar(1); got != 7 {
		t.Errorf("ctr[1] = %d, want 7", got)
	}
	if got := ctr.Scalar(2); got != 9 {
		t.Errorf("ctr[2] = %d, want 9", got)
	}
}

// threadedRun is one launch observed every way the executor can be
// observed: buffer contents, run error, fuel high-water mark, the
// coverage edge set and the defect-site hit counts.
type threadedRun struct {
	out   []uint64
	err   error
	steps int64
	edges []uint32
	sites [exec.CoverNumSites]uint64
}

// launchObserved executes an already-lowered program on the VM with the
// given work-group fan-out budget and every observation hook armed.
func launchObserved(prog *ast.Program, info *sema.Info, cp *code.Program, nd exec.NDRange, fuel int64, workers int) threadedRun {
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	var st exec.Stats
	cov := &exec.CoverMap{}
	runErr := exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
		NoBarrier:  !info.HasBarrier,
		NoAtomics:  !info.HasAtomic,
		HasFwdDecl: info.HasFwdDecl,
		Workers:    workers,
		Fuel:       fuel,
		Code:       cp,
		Stats:      &st,
		Cover:      cov,
	})
	return threadedRun{out: out.Scalars(), err: runErr, steps: st.MaxThreadSteps, edges: cov.Edges(), sites: cov.SiteHits()}
}

// TestThreadedMatchesSwitch pins the fan-out contract on every
// observation, not just buffer contents: on every kernel shape, NDRange
// and fuel budget, a launch whose work-groups run concurrently on worker
// goroutines (threaded) reports exactly what the serial schedule — every
// group through the switch loop on the calling goroutine — reports:
// the same error (including the fuel-exhaustion verdict) and, when the
// launch completes, identical buffer contents, Stats fuel high-water
// mark, coverage edge set and defect-site hit counts. A failing launch
// is compared on its verdict alone: the fan-out may run later groups
// further before the lowest failing group's error is reported.
func TestThreadedMatchesSwitch(t *testing.T) {
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
	nds := []exec.NDRange{
		{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}},
		{Global: [3]int{8, 2, 1}, Local: [3]int{2, 2, 1}},
	}
	all := append(append([]struct{ name, src string }{}, parallelKernels...), engineKernels...)
	for _, k := range all {
		prog, err := parser.Parse(k.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", k.name, err)
		}
		prog, info, err := sema.Check(prog, 0)
		if err != nil {
			t.Fatalf("%s: sema: %v", k.name, err)
		}
		lowered, err := code.Lower(prog)
		if err != nil {
			t.Fatalf("%s: lower: %v", k.name, err)
		}
		for _, nd := range nds {
			for _, fuel := range []int64{0, 700} {
				want := launchObserved(prog, info, lowered, nd, fuel, 1)
				for _, workers := range []int{2, 8} {
					got := launchObserved(prog, info, lowered, nd, fuel, workers)
					label := fmt.Sprintf("%s nd=%v budget=%d workers=%d", k.name, nd.Global, fuel, workers)
					requireSameRun(t, label, got, want)
				}
			}
		}
	}
}

func requireSameRun(t *testing.T, label string, got, want threadedRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: threaded err %v, serial err %v", label, got.err, want.err)
	}
	if want.err != nil {
		if got.err.Error() != want.err.Error() {
			t.Fatalf("%s: threaded err %q, serial err %q", label, got.err, want.err)
		}
		return
	}
	for i := range want.out {
		if got.out[i] != want.out[i] {
			t.Fatalf("%s: out[%d] = %d, want %d", label, i, got.out[i], want.out[i])
		}
	}
	if got.steps != want.steps {
		t.Fatalf("%s: threaded charged %d steps, serial charged %d", label, got.steps, want.steps)
	}
	if len(got.edges) != len(want.edges) {
		t.Fatalf("%s: threaded hit %d edges, serial hit %d", label, len(got.edges), len(want.edges))
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			t.Fatalf("%s: edge[%d] = %#x, want %#x", label, i, got.edges[i], want.edges[i])
		}
	}
	if got.sites != want.sites {
		t.Fatalf("%s: threaded site hits %v, serial %v", label, got.sites, want.sites)
	}
}

// FuzzThreadedMatchesSwitch is the fan-out equivalence fuzz target:
// generate a random kernel, compile it on a random configuration
// (arming that configuration's defect models and optimization
// pipeline), and run it on the VM twice — serially, every work-group
// through the switch loop on the calling goroutine, and threaded, with
// the groups fanned out over a random worker budget. There is no
// sanctioned divergence: outcome (including Timeout), diagnostic, buffer
// contents and, for completed launches, the coverage edge set must agree
// byte for byte. Kernels are generated up to 64 threads so NDRanges span
// several work-groups, the shape the fan-out actually parallelizes.
func FuzzThreadedMatchesSwitch(f *testing.F) {
	f.Add(uint8(0), uint32(42), uint8(0), false, uint8(0))
	f.Add(uint8(1), uint32(7), uint8(3), true, uint8(1))
	f.Add(uint8(2), uint32(11), uint8(12), true, uint8(0))
	f.Add(uint8(3), uint32(5), uint8(17), false, uint8(1))
	f.Add(uint8(3), uint32(1000), uint8(7), true, uint8(6))
	modes := []generator.Mode{
		generator.ModeBasic, generator.ModeVector, generator.ModeBarrier, generator.ModeAll,
	}
	cfgs := device.All()
	f.Fuzz(func(t *testing.T, mode uint8, seed uint32, cfgID uint8, optimize bool, workerSel uint8) {
		k := generator.Generate(generator.Options{
			Mode:            modes[int(mode)%len(modes)],
			Seed:            int64(seed),
			MaxTotalThreads: 64,
		})
		cfg := cfgs[int(cfgID)%len(cfgs)]
		cr := cfg.Compile(k.Src, optimize)
		if cr.Outcome != device.OK {
			return
		}
		if cr.Kernel.Code == nil {
			t.Fatalf("kernel did not lower (mode %d seed %d)", mode, seed)
		}
		run := func(workers int) (device.RunResult, []uint32) {
			args, result := k.Buffers()
			cov := &exec.CoverMap{}
			rr := cr.Kernel.Run(k.ND, args, result, device.RunOptions{
				Engine: exec.EngineVM, Workers: workers, Cover: cov,
			})
			return rr, cov.Edges()
		}
		want, wantEdges := run(1)
		got, gotEdges := run(2 + int(workerSel%7))
		if got.Outcome != want.Outcome {
			t.Fatalf("outcome: threaded %v, serial %v (msg %q vs %q)\n%s", got.Outcome, want.Outcome, got.Msg, want.Msg, k.Src)
		}
		if got.Msg != want.Msg {
			t.Fatalf("msg: threaded %q, serial %q\n%s", got.Msg, want.Msg, k.Src)
		}
		if len(got.Output) != len(want.Output) {
			t.Fatalf("output length: threaded %d, serial %d\n%s", len(got.Output), len(want.Output), k.Src)
		}
		for i := range want.Output {
			if got.Output[i] != want.Output[i] {
				t.Fatalf("out[%d]: threaded %#x, serial %#x\n%s", i, got.Output[i], want.Output[i], k.Src)
			}
		}
		if want.Outcome != device.OK {
			return
		}
		if len(gotEdges) != len(wantEdges) {
			t.Fatalf("coverage: threaded hit %d edges, serial %d\n%s", len(gotEdges), len(wantEdges), k.Src)
		}
		for i := range wantEdges {
			if gotEdges[i] != wantEdges[i] {
				t.Fatalf("edge[%d]: threaded %#x, serial %#x\n%s", i, gotEdges[i], wantEdges[i], k.Src)
			}
		}
	})
}
