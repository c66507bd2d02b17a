package harness

import (
	"fmt"
	"sync"
	"testing"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
)

// armImmutableAssert makes every exec.Run of the test verify the
// executor's read-only-AST contract: compiled kernels are shared across
// configurations by the back cache, so a single in-place mutation would
// silently corrupt every later launch of the same program. Under -race
// (CI runs this file with the detector on) the assertion also pins the
// contract against concurrent launches of one shared kernel.
func armImmutableAssert(t *testing.T) {
	t.Helper()
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
}

// goldenSeeds is the fixed seed set the compile-cache regression tests run
// over: a mix of generator modes exercising scalars, vectors, barriers and
// structs, so the cached front end is compared against the uncached path
// across every compilation shape.
type goldenSeed struct {
	mode generator.Mode
	seed int64
}

var goldenSeeds = []goldenSeed{
	{generator.ModeBasic, 42},
	{generator.ModeBasic, 1000},
	{generator.ModeVector, 7},
	{generator.ModeBarrier, 11},
	{generator.ModeAll, 5},
}

func goldenCases(t *testing.T) []Case {
	t.Helper()
	seeds := goldenSeeds
	if testing.Short() {
		// CI skips the long-running ModeBasic/1000 kernel (the
		// BenchmarkDifferentialTest workload); full runs keep it.
		seeds = []goldenSeed{goldenSeeds[0], goldenSeeds[2], goldenSeeds[3], goldenSeeds[4]}
	}
	cases := make([]Case, 0, len(seeds))
	for _, gs := range seeds {
		k := generator.Generate(generator.Options{
			Mode: gs.mode, Seed: gs.seed, MaxTotalThreads: 16,
		})
		cases = append(cases, CaseFromKernel(k, fmt.Sprintf("golden-%s-%d", gs.mode, gs.seed)))
	}
	return cases
}

func requireSameResults(t *testing.T, label string, got, want []oracle.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key {
			t.Fatalf("%s[%d]: key %q, want %q", label, i, g.Key, w.Key)
		}
		if g.Outcome != w.Outcome {
			t.Fatalf("%s[%d] %s: outcome %v, want %v", label, i, g.Key, g.Outcome, w.Outcome)
		}
		if len(g.Output) != len(w.Output) {
			t.Fatalf("%s[%d] %s: %d outputs, want %d", label, i, g.Key, len(g.Output), len(w.Output))
		}
		for j := range w.Output {
			if g.Output[j] != w.Output[j] {
				t.Fatalf("%s[%d] %s: out[%d] = %#x, want %#x", label, i, g.Key, j, g.Output[j], w.Output[j])
			}
		}
	}
}

// TestCompileCacheDeterminism asserts the central compile-once invariant:
// RunEverywhere through the shared front-end cache (with model-level run
// deduplication) produces byte-identical oracle.Result sets — keys,
// outcomes and outputs — to the cache-bypassing path that re-lexes and
// re-parses the source for every (configuration, level) pair.
func TestCompileCacheDeterminism(t *testing.T) {
	armImmutableAssert(t)
	cfgs := device.All()
	for _, c := range goldenCases(t) {
		got := RunEverywhere(cfgs, c)
		want := RunEverywhereUncached(cfgs, c)
		requireSameResults(t, c.Name, got, want)
	}
}

// TestConcurrentCampaignsDeterministic runs two full campaigns over the
// golden seeds concurrently, sharing device.DefaultFrontCache, and checks
// both against the uncached reference. Run under -race this also verifies
// the cache's synchronization.
func TestConcurrentCampaignsDeterministic(t *testing.T) {
	armImmutableAssert(t)
	cfgs := device.All()
	cases := goldenCases(t)
	want := make([][]oracle.Result, len(cases))
	for i, c := range cases {
		want[i] = RunEverywhereUncached(cfgs, c)
	}
	const campaigns = 2
	got := make([][][]oracle.Result, campaigns)
	var wg sync.WaitGroup
	for ci := 0; ci < campaigns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			got[ci] = make([][]oracle.Result, len(cases))
			for i, c := range cases {
				got[ci][i] = RunEverywhere(cfgs, c)
			}
		}(ci)
	}
	wg.Wait()
	for ci := 0; ci < campaigns; ci++ {
		for i, c := range cases {
			requireSameResults(t, fmt.Sprintf("campaign%d/%s", ci, c.Name), got[ci][i], want[i])
		}
	}
}

// TestEngineDeterminism pins the two evaluation engines against each
// other across the full defect-model matrix: for every golden case, every
// configuration and both optimization levels, the register VM and the
// reference tree walker must produce byte-identical outcomes, diagnostics
// and buffer contents. It compiles on the VM under any CLFUZZ_ENGINE and
// runs a copy of each kernel without bytecode on the tree walker. Run
// under -race (CI does) this also verifies the VM's shared-memory
// discipline and, via the armed immutable assertion, that lowering and
// VM execution never write to the shared AST.
func TestEngineDeterminism(t *testing.T) {
	armImmutableAssert(t)
	pinEngine(t, false)
	cfgs := device.All()
	for _, c := range goldenCases(t) {
		fe := device.DefaultFrontCache.Get(c.Src)
		for _, cfg := range cfgs {
			for _, opt := range []bool{false, true} {
				cr := cfg.CompileFrontEnd(fe, opt)
				if cr.Outcome != device.OK {
					continue
				}
				if cr.Kernel.Code == nil {
					t.Fatalf("%s on %s: kernel did not lower to bytecode", c.Name, Key(cfg, opt))
				}
				// A copy without bytecode runs on the tree walker.
				tree := *cr.Kernel
				tree.Code = nil
				args, result := c.Buffers()
				want := tree.Run(c.ND, args, result, device.RunOptions{})
				vargs, vresult := c.Buffers()
				got := cr.Kernel.Run(c.ND, vargs, vresult, device.RunOptions{})
				label := fmt.Sprintf("%s on %s", c.Name, Key(cfg, opt))
				if got.Outcome != want.Outcome || got.Msg != want.Msg {
					t.Fatalf("%s: vm (%v, %q), tree (%v, %q)", label, got.Outcome, got.Msg, want.Outcome, want.Msg)
				}
				if len(got.Output) != len(want.Output) {
					t.Fatalf("%s: %d outputs, want %d", label, len(got.Output), len(want.Output))
				}
				for j := range want.Output {
					if got.Output[j] != want.Output[j] {
						t.Fatalf("%s: out[%d] = %#x, want %#x", label, j, got.Output[j], want.Output[j])
					}
				}
			}
		}
	}
}

// TestFrontCacheSharing checks that a campaign actually hits the cache:
// compiling one source across every configuration and level must parse it
// exactly once.
func TestFrontCacheSharing(t *testing.T) {
	fc := device.NewFrontCache(8)
	k := generator.Generate(generator.Options{Mode: generator.ModeBasic, Seed: 3, MaxTotalThreads: 8})
	for _, cfg := range device.All() {
		for _, opt := range []bool{false, true} {
			fe := fc.Get(k.Src)
			cr := cfg.CompileFrontEnd(fe, opt)
			_ = cr
		}
	}
	hits, misses, size := fc.Stats()
	if misses != 1 || size != 1 {
		t.Fatalf("expected exactly one parse, got hits=%d misses=%d size=%d", hits, misses, size)
	}
	if hits != uint64(len(device.All())*2-1) {
		t.Fatalf("expected %d hits, got %d", len(device.All())*2-1, hits)
	}
}
