package exec_test

import (
	"fmt"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// schedules are the executor's two work-group schedules. A launch takes
// the lockstep goroutine-per-thread schedule when it is run without the
// NoBarrier guarantee (on groups of more than one thread) even if the
// kernel is barrier-free, and the sequential fast path otherwise.
var schedules = []struct {
	name     string
	lockstep bool
}{{"sequential", false}, {"lockstep", true}}

// parallelKernels is the kernel set the two schedules are compared on:
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

// TestParallelGroupsDeterministic is the schedule half of the executor's
// central invariant: a race-free launch must produce byte-identical
// buffer contents on the sequential fast path and on the lockstep
// goroutine-per-thread schedule, on either engine. Run with -race this
// also verifies that the lockstep path never runs two threads at once.
func TestParallelGroupsDeterministic(t *testing.T) {
	// Verify the read-only-AST contract on every launch of this test: the
	// same checked program is run on both schedules and engines, the
	// sharing pattern the back cache produces at campaign scale.
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
	nds := []exec.NDRange{
		{Global: [3]int{64, 1, 1}, Local: [3]int{8, 1, 1}},
		{Global: [3]int{16, 4, 1}, Local: [3]int{4, 2, 1}},
	}
	for _, k := range parallelKernels {
		for _, nd := range nds {
			// The sequential tree walk is the reference; every engine and
			// schedule combination must reproduce it byte for byte.
			want, wantErr := launchEngine(t, k.src, nd, engineTree, 0, false)
			for _, engine := range []testEngine{engineTree, engineVM} {
				for _, sc := range schedules {
					got, gotErr := launchEngine(t, k.src, nd, engine, 0, sc.lockstep)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s engine=%s %s: err %v, want %v", k.name, engine, sc.name, gotErr, wantErr)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s engine=%s %s: out[%d] = %d, want %d", k.name, engine, sc.name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelGroupsErrorOrder checks the launch verdict under failures:
// work-groups run in group order, so the launch reports the error of the
// lowest-numbered failing group on either schedule and engine, even when
// a later group fails differently (here group 1 times out while group 3
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
	runWith := func(lockstep bool, engine testEngine) error {
		out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		return exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
			NoBarrier: !info.HasBarrier && !lockstep,
			Fuel:      50_000,
			Code:      codeFor(engine, lowered),
		})
	}
	want := runWith(false, engineTree)
	if _, ok := want.(*exec.TimeoutError); !ok {
		t.Fatalf("sequential error = %v (%T), want timeout from group 1", want, want)
	}
	for _, engine := range []testEngine{engineTree, engineVM} {
		for _, sc := range schedules {
			got := runWith(sc.lockstep, engine)
			if _, ok := got.(*exec.TimeoutError); !ok {
				t.Fatalf("engine=%s %s error = %v (%T), want timeout from group 1", engine, sc.name, got, got)
			}
			if got.Error() != want.Error() {
				t.Fatalf("engine=%s %s error %q, want %q", engine, sc.name, got.Error(), want.Error())
			}
		}
	}
}

// TestAtomicsStaySerial pins group order as the executor's contract for
// atomics, the one defined cross-group communication channel: on 32
// one-thread groups every atomic_inc ticket equals its group's index, on
// both schedules and engines. (A one-thread group takes the sequential
// path even without NoBarrier, so the race checker is what puts it on
// the lockstep schedule here.)
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
	lowered, err := code.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	nd := exec.NDRange{Global: [3]int{32, 1, 1}, Local: [3]int{1, 1, 1}}
	// One pool for every launch: the two schedules keep differently
	// shaped states, so the pool's misses show both were taken.
	pool := exec.NewLaunchPool()
	for _, engine := range []testEngine{engineTree, engineVM} {
		for _, sc := range schedules {
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			ctr := exec.NewBuffer(cltypes.TUInt, 1)
			err := exec.Run(prog, nd, exec.Args{"out": {Buf: out}, "ctr": {Buf: ctr}}, exec.Options{
				NoBarrier:  !info.HasBarrier,
				CheckRaces: sc.lockstep,
				Code:       codeFor(engine, lowered),
				Pool:       pool,
			})
			if err != nil {
				t.Fatalf("engine=%s %s: %v", engine, sc.name, err)
			}
			for g, ticket := range out.Scalars() {
				if ticket != uint64(g) {
					t.Fatalf("engine=%s %s: group %d drew ticket %d, want its group index", engine, sc.name, g, ticket)
				}
			}
		}
	}
	if _, misses := pool.Counters(); misses != 2 {
		t.Fatalf("pool built %d launch states, want 2 (one per schedule)", misses)
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
// observed: buffer contents, run error, fuel high-water mark, the defect
// bits it tested, the coverage edge set and the defect-site hit counts.
type threadedRun struct {
	out    []uint64
	err    error
	steps  int64
	tested bugs.Set
	edges  []uint32
	sites  [exec.CoverNumSites]uint64
}

// launchObserved executes a checked program with every observation hook
// armed, on the lockstep schedule or the sequential path (see
// schedules). buffers builds the launch's arguments and names the result
// buffer; opts carries the rest of the launch (fuel, code, defects).
func launchObserved(prog *ast.Program, info *sema.Info, nd exec.NDRange, buffers func() (exec.Args, *exec.Buffer), opts exec.Options, lockstep bool) threadedRun {
	args, result := buffers()
	var st exec.Stats
	cov := &exec.CoverMap{}
	opts.NoBarrier = !info.HasBarrier && !lockstep
	opts.HasFwdDecl = info.HasFwdDecl
	opts.Stats = &st
	opts.Cover = cov
	runErr := exec.Run(prog, nd, args, opts)
	return threadedRun{out: result.Scalars(), err: runErr, steps: st.MaxThreadSteps, tested: st.Tested, edges: cov.Edges(), sites: cov.SiteHits()}
}

// outBuffer returns an argument factory for the test kernels' single
// ulong out buffer.
func outBuffer(nd exec.NDRange) func() (exec.Args, *exec.Buffer) {
	return func() (exec.Args, *exec.Buffer) {
		out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		return exec.Args{"out": {Buf: out}}, out
	}
}

// failFirstKernel crashes work-item 0 of every group on an out-of-bounds
// store while its siblings loop over a shared read-modify-write of
// out[0]. No thread may run after a launch fails, so a sibling that did
// would show in the buffers, the fuel high-water mark and the coverage —
// and, since the executor uses no atomics, in a -race report.
var failFirstKernel = struct{ name, src string }{"fail-first", `
kernel void k(global ulong *out) {
    ulong v = 0;
    if (get_linear_local_id() == 0UL) { out[1000000] = 1UL; }
    for (int i = 0; i < 20; i++) {
        if ((v & 1UL) == 0UL) { v = v * 7UL + (ulong)i; } else { v = v + 3UL; }
        out[0] = out[0] + v;
    }
    out[get_linear_global_id()] = v;
}
`}

// TestThreadedMatchesSwitch pins the two schedules against each other on
// every observation, not just buffer contents: on every kernel shape,
// NDRange and fuel budget, a VM launch whose threads run on lockstep
// goroutines (threaded) reports exactly what the sequential path — every
// thread through the switch loop on the calling goroutine — reports: the
// same error (including the fuel-exhaustion verdict), buffer contents,
// Stats fuel high-water mark and tested defect bits, coverage edge set
// and defect-site hit counts. Failing launches are held to the same comparison: on either
// schedule, no thread runs after the first failure.
func TestThreadedMatchesSwitch(t *testing.T) {
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
	nds := []exec.NDRange{
		{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}},
		{Global: [3]int{8, 2, 1}, Local: [3]int{2, 2, 1}},
	}
	all := append(append([]struct{ name, src string }{}, parallelKernels...), engineKernels...)
	all = append(all, failFirstKernel)
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
				opts := exec.Options{Fuel: fuel, Code: lowered}
				want := launchObserved(prog, info, nd, outBuffer(nd), opts, false)
				got := launchObserved(prog, info, nd, outBuffer(nd), opts, true)
				label := fmt.Sprintf("%s nd=%v budget=%d", k.name, nd.Global, fuel)
				requireSameRun(t, label, got, want)
			}
		}
	}
}

func requireSameRun(t *testing.T, label string, got, want threadedRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: threaded err %v, sequential err %v", label, got.err, want.err)
	}
	if want.err != nil && got.err.Error() != want.err.Error() {
		t.Fatalf("%s: threaded err %q, sequential err %q", label, got.err, want.err)
	}
	for i := range want.out {
		if got.out[i] != want.out[i] {
			t.Fatalf("%s: out[%d] = %d, want %d", label, i, got.out[i], want.out[i])
		}
	}
	if got.steps != want.steps {
		t.Fatalf("%s: threaded charged %d steps, sequential charged %d", label, got.steps, want.steps)
	}
	if got.tested != want.tested {
		t.Fatalf("%s: threaded tested defect bits %#x, sequential %#x", label, got.tested, want.tested)
	}
	if len(got.edges) != len(want.edges) {
		t.Fatalf("%s: threaded hit %d edges, sequential hit %d", label, len(got.edges), len(want.edges))
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			t.Fatalf("%s: edge[%d] = %#x, want %#x", label, i, got.edges[i], want.edges[i])
		}
	}
	if got.sites != want.sites {
		t.Fatalf("%s: threaded site hits %v, sequential %v", label, got.sites, want.sites)
	}
}

// FuzzThreadedMatchesSwitch is the schedule equivalence fuzz target:
// generate a random kernel, compile it on a random configuration (arming
// that configuration's compile-time defects and optimization pipeline),
// and run the compiled program on the VM twice with the configuration's
// executor defects and fuel — on the sequential path, every thread
// through the switch loop on the calling goroutine, and threaded, on the
// lockstep goroutine-per-thread schedule. The comparison is
// TestThreadedMatchesSwitch's: the same verdict (including Timeout),
// buffers, fuel high-water mark, tested defect bits, coverage edge set
// and defect-site hits, for failing launches too. Kernels are generated up to 64 threads so
// NDRanges span several multi-thread work-groups.
func FuzzThreadedMatchesSwitch(f *testing.F) {
	f.Add(uint8(0), uint32(42), uint8(0), false)
	f.Add(uint8(1), uint32(7), uint8(3), true)
	f.Add(uint8(2), uint32(11), uint8(12), true)
	f.Add(uint8(3), uint32(5), uint8(17), false)
	f.Add(uint8(3), uint32(1000), uint8(7), true)
	modes := []generator.Mode{
		generator.ModeBasic, generator.ModeVector, generator.ModeBarrier, generator.ModeAll,
	}
	cfgs := device.All()
	// Compile on the VM whatever CLFUZZ_ENGINE selected: the target
	// compares coverage, which only the VM collects.
	saved := device.TreeEngine
	device.TreeEngine = false
	f.Cleanup(func() { device.TreeEngine = saved })
	f.Fuzz(func(t *testing.T, mode uint8, seed uint32, cfgID uint8, optimize bool) {
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
		lvl := cfg.Level(optimize)
		fuel := float64(device.DefaultFuel)
		if lvl.FuelFactor > 0 {
			fuel *= lvl.FuelFactor
		}
		opts := exec.Options{Defects: lvl.Defects, Hash: cr.Kernel.Hash, Fuel: int64(fuel), Code: cr.Kernel.Code}
		kn := cr.Kernel
		want := launchObserved(kn.Prog, kn.Info, k.ND, k.Buffers, opts, false)
		got := launchObserved(kn.Prog, kn.Info, k.ND, k.Buffers, opts, true)
		label := fmt.Sprintf("mode %d seed %d config %d optimize %v", mode, seed, cfg.ID, optimize)
		requireSameRun(t, label, got, want)
	})
}
