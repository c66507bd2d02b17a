package campaign

import (
	"runtime"
	"testing"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
)

// pinVM compiles and runs the rest of the test on the VM whatever
// CLFUZZ_ENGINE selected for the process: only the VM collects coverage,
// and the tests below must hold under CLFUZZ_ENGINE=tree too.
func pinVM(t *testing.T) {
	saved := device.TreeEngine
	device.TreeEngine = false
	t.Cleanup(func() { device.TreeEngine = saved })
}

// coverCase branches on runtime values (the thread id), so its branches
// survive constant folding and the VM has edges to report.
func coverCase(name string) Case {
	nd := exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{4, 1, 1}}
	return Case{
		Name: name,
		Src: `
kernel void k(global ulong *out) {
    ulong id = get_linear_global_id();
    ulong acc = 7;
    for (ulong i = 0; i < id + 2UL; i++) {
        acc = acc * 47UL + 3UL;
        if ((acc & 1UL) == 1UL) { acc += 5UL; }
    }
    out[id] = acc;
}
`,
		ND: nd,
		Buffers: func() (exec.Args, *exec.Buffer) {
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			return exec.Args{"out": {Buf: out}}, out
		},
	}
}

// TestCoverageNeutralLaunch: a covered launch is byte-identical to an
// uncovered one — coverage is observation only — while actually
// populating the map.
func TestCoverageNeutralLaunch(t *testing.T) {
	pinVM(t)
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	plain := eng.RunCase(cfg, true, coverCase("plain"), LaunchOptions{})
	cov := new(exec.CoverMap)
	covered := eng.RunCase(cfg, true, coverCase("plain"), LaunchOptions{Cover: cov})
	if covered.Outcome != plain.Outcome || covered.Msg != plain.Msg {
		t.Fatalf("coverage changed the verdict: (%v, %q) vs (%v, %q)",
			covered.Outcome, covered.Msg, plain.Outcome, plain.Msg)
	}
	if len(covered.Output) != len(plain.Output) {
		t.Fatalf("coverage changed the output length: %d vs %d", len(covered.Output), len(plain.Output))
	}
	for i := range plain.Output {
		if covered.Output[i] != plain.Output[i] {
			t.Fatalf("out[%d] = %#x covered, %#x plain", i, covered.Output[i], plain.Output[i])
		}
	}
	if cov.Count() == 0 {
		t.Fatal("covered launch collected no edges")
	}
}

// TestCoverResultCacheIsolation: covered and uncovered runs of the same
// launch use distinct result-cache entries — an uncovered hit must never
// serve a covered request (it would silently lose the coverage delta)
// and vice versa.
func TestCoverResultCacheIsolation(t *testing.T) {
	pinVM(t)
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := coverCase("isolate")
	if r := eng.RunCase(cfg, true, c, LaunchOptions{}); r.Cached {
		t.Fatal("first uncovered run hit the cache")
	}
	covA := new(exec.CoverMap)
	if r := eng.RunCase(cfg, true, c, LaunchOptions{Cover: covA}); r.Cached {
		t.Fatal("first covered run was served from the uncovered entry")
	}
	if covA.Count() == 0 {
		t.Fatal("covered miss collected no edges")
	}
	// A covered hit must replay the memoized delta into the caller's map.
	covB := new(exec.CoverMap)
	if r := eng.RunCase(cfg, true, c, LaunchOptions{Cover: covB}); !r.Cached {
		t.Fatal("second covered run missed the cache")
	}
	edgesA, edgesB := covA.Edges(), covB.Edges()
	if len(edgesA) != len(edgesB) {
		t.Fatalf("replayed coverage has %d edges, executed had %d", len(edgesB), len(edgesA))
	}
	for i := range edgesA {
		if edgesA[i] != edgesB[i] {
			t.Fatalf("edge[%d] = %d replayed, %d executed", i, edgesB[i], edgesA[i])
		}
	}
	if covA.SiteHits() != covB.SiteHits() {
		t.Fatalf("replayed site hits %v, executed %v", covB.SiteHits(), covA.SiteHits())
	}
	// And the uncovered entry still serves uncovered requests.
	if r := eng.RunCase(cfg, true, c, LaunchOptions{}); !r.Cached {
		t.Fatal("uncovered entry was lost")
	}
	if _, _, size := eng.Results.Stats(); size != 2 {
		t.Fatalf("cache holds %d entries, want 2 (covered + uncovered)", size)
	}
}

// TestEngineWideCoverAccumulates: Engine.Cover receives every launch's
// coverage when no per-launch override is given, across cache hits and
// misses alike.
func TestEngineWideCoverAccumulates(t *testing.T) {
	pinVM(t)
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	eng.Cover = new(exec.CoverMap)
	cfg := device.Reference()
	eng.RunCase(cfg, true, coverCase("wide"), LaunchOptions{})
	afterMiss := eng.Cover.Count()
	if afterMiss == 0 {
		t.Fatal("engine-wide map empty after an executed launch")
	}
	eng.RunCase(cfg, true, coverCase("wide"), LaunchOptions{})
	if got := eng.Cover.Count(); got != afterMiss {
		t.Fatalf("cache-hit replay changed the distinct-edge count: %d vs %d", got, afterMiss)
	}
}

// failFirstGroupSrc fails in work-group 0 (an out-of-bounds store) while
// groups 2 and 3 run loops and branches the VM records as edges.
const failFirstGroupSrc = `
kernel void k(global ulong *out) {
    size_t g = get_group_id(0);
    ulong v = 0;
    if (g == 0) { out[1000000] = 1UL; }
    if (g == 2) { for (int i = 0; i < 3; i++) { v = v * 7UL + (ulong)i; } }
    if (g == 3) { for (int i = 0; i < 5; i++) { if (i > 2) { v = v + 1UL; } else { v = v * 3UL; } } }
    out[get_linear_global_id()] = g + v;
}
`

// TestFailingLaunchCoverageHostIndependent: a failing launch's coverage
// does not depend on how many cores the host has. Work-groups run in
// group order and the first failing group ends the launch, so a one-unit
// matrix collects the same edges and site hits into the engine-wide map
// at GOMAXPROCS 1 and 4. The VM is pinned (only it collects coverage).
func TestFailingLaunchCoverageHostIndependent(t *testing.T) {
	pinVM(t)
	nd := exec.NDRange{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}}
	run := func(procs int) *exec.CoverMap {
		// Set GOMAXPROCS for this run and restore the previous value.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		eng := &Engine{Front: device.NewFrontCache(16), Cover: new(exec.CoverMap)}
		rs := eng.RunMatrix(Matrix{
			Name:    "fail-first-group",
			Sources: []string{failFirstGroupSrc},
			ND:      nd,
			Buffers: func(int) (exec.Args, *exec.Buffer) {
				out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
				return exec.Args{"out": {Buf: out}}, out
			},
			Units: []Unit{{Src: 0, Cfg: device.Reference(), Opt: true}},
		}, 1)
		if rs[0].Outcome == device.OK {
			t.Fatalf("GOMAXPROCS=%d: launch succeeded, want group 0 to fail", procs)
		}
		return eng.Cover
	}
	one, four := run(1), run(4)
	e1, e4 := one.Edges(), four.Edges()
	if len(e1) != len(e4) {
		t.Fatalf("failing launch collected %d edges at GOMAXPROCS=1, %d at GOMAXPROCS=4", len(e1), len(e4))
	}
	for i := range e1 {
		if e1[i] != e4[i] {
			t.Fatalf("edge[%d] = %#x at GOMAXPROCS=1, %#x at GOMAXPROCS=4", i, e1[i], e4[i])
		}
	}
	if one.SiteHits() != four.SiteHits() {
		t.Fatalf("site hits %v at GOMAXPROCS=1, %v at GOMAXPROCS=4", one.SiteHits(), four.SiteHits())
	}
}
