package device_test

import (
	"sync"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
)

// TestTable1Inventory checks the configuration registry mirrors Table 1:
// 21 configurations, the right device types, and the paper's threshold
// column.
func TestTable1Inventory(t *testing.T) {
	all := device.All()
	if len(all) != 21 {
		t.Fatalf("have %d configurations, Table 1 lists 21", len(all))
	}
	above := map[int]bool{1: true, 2: true, 3: true, 4: true, 9: true,
		12: true, 13: true, 14: true, 15: true, 19: true}
	types := map[int]device.Type{
		1: device.GPU, 5: device.GPU, 9: device.GPU, 12: device.CPU,
		17: device.CPU, 18: device.Accelerator, 19: device.Emulator,
		20: device.Emulator, 21: device.FPGA,
	}
	for _, c := range all {
		if c.PaperAboveThreshold != above[c.ID] {
			t.Errorf("config %d: threshold column %v, paper says %v", c.ID, c.PaperAboveThreshold, above[c.ID])
		}
		if want, ok := types[c.ID]; ok && c.Type != want {
			t.Errorf("config %d: type %s, want %s", c.ID, c.Type, want)
		}
	}
	if device.ByID(12).CLVersion != "2.0" {
		t.Error("config 12 must report OpenCL 2.0 (Table 1)")
	}
	if device.ByID(99) != nil {
		t.Error("ByID(99) must be nil")
	}
}

// TestCompileDeterminism: compiling the same source twice on the same
// configuration yields identical outcomes and runs identically — gating
// is a pure function of the source hash.
func TestCompileDeterminism(t *testing.T) {
	k := generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: 321, MaxTotalThreads: 32})
	for _, cfg := range device.All() {
		for _, optimize := range []bool{false, true} {
			a := cfg.Compile(k.Src, optimize)
			b := cfg.Compile(k.Src, optimize)
			if a.Outcome != b.Outcome {
				t.Fatalf("config %d opt=%v: nondeterministic compile outcome", cfg.ID, optimize)
			}
			if a.Outcome != device.OK {
				continue
			}
			argsA, resA := k.Buffers()
			argsB, resB := k.Buffers()
			ra := a.Kernel.Run(k.ND, argsA, resA, device.RunOptions{})
			rb := b.Kernel.Run(k.ND, argsB, resB, device.RunOptions{})
			if ra.Outcome != rb.Outcome {
				t.Fatalf("config %d opt=%v: nondeterministic run outcome (%s vs %s)",
					cfg.ID, optimize, ra.Outcome, rb.Outcome)
			}
			if ra.Outcome == device.OK && !oracle.Equal(ra.Output, rb.Output) {
				t.Fatalf("config %d opt=%v: nondeterministic output", cfg.ID, optimize)
			}
		}
	}
}

// TestBackCacheMatchesUncached is the back-end half of the cache
// determinism contract: for every configuration and optimization level,
// the kernel produced through the shared BackCache must print to the same
// source, report the same outcome and diagnostic, and carry the same
// semantic summary as the cache-bypassing path that re-checks and
// re-optimizes from a fresh parse. The sources reach every fold model the
// fold stage's key must keep apart: the Figure 2(b) exhibit (rotate and
// swizzle folds), the Figure 2(e) exhibit (the gated group-id flip) and a
// literal swizzle. Run under -race in CI, it also exercises concurrent
// compiles against one cache.
func TestBackCacheMatchesUncached(t *testing.T) {
	srcs := []string{`
kernel void entry(global ulong *out) {
    ulong v = 1UL;
    out[get_linear_global_id()] = v;
}
`, `
kernel void entry(global ulong *out) {
    ulong v = 2UL;
    out[get_linear_global_id()] = v;
}
`, `
kernel void entry(global ulong *out) {
    int s = 0;
    for (int i = 0; i < 4; i++) { s += i; }
    out[get_linear_global_id()] = (ulong)(uint)(s * 1 + 0);
}
`, exhibits.ByID("2b").Src, exhibits.ByID("2e").Src, `
kernel void entry(global ulong *out) {
    uint4 v = (uint4)(5, 6, 7, 8);
    out[get_linear_global_id()] = (ulong)((uint4)(1, 2, 3, 4)).z + (ulong)v.w;
}
`}
	var wg sync.WaitGroup
	for _, src := range srcs {
		for _, cfg := range device.All() {
			for _, optimize := range []bool{false, true} {
				wg.Add(1)
				go func(src string, cfg *device.Config, optimize bool) {
					defer wg.Done()
					cached := cfg.Compile(src, optimize)
					plain := cfg.CompileUncached(src, optimize)
					if cached.Outcome != plain.Outcome || cached.Msg != plain.Msg {
						t.Errorf("config %d opt=%v: cached (%v, %q) != uncached (%v, %q)",
							cfg.ID, optimize, cached.Outcome, cached.Msg, plain.Outcome, plain.Msg)
						return
					}
					if cached.Outcome != device.OK {
						return
					}
					if g, w := ast.Print(cached.Kernel.Prog), ast.Print(plain.Kernel.Prog); g != w {
						t.Errorf("config %d opt=%v: cached program differs from uncached\n--- cached ---\n%s\n--- uncached ---\n%s",
							cfg.ID, optimize, g, w)
					}
					if *cached.Kernel.Info != *plain.Kernel.Info {
						t.Errorf("config %d opt=%v: cached info %+v != uncached %+v",
							cfg.ID, optimize, *cached.Kernel.Info, *plain.Kernel.Info)
					}
				}(src, cfg, optimize)
			}
		}
	}
	wg.Wait()
}

// TestReferenceIsClean: the reference configuration never rejects, crashes
// or corrupts a valid kernel.
func TestReferenceIsClean(t *testing.T) {
	ref := device.Reference()
	for seed := int64(500); seed < 520; seed++ {
		k := generator.Generate(generator.Options{Mode: generator.ModeBasic, Seed: seed, MaxTotalThreads: 16})
		for _, optimize := range []bool{false, true} {
			cr := ref.Compile(k.Src, optimize)
			if cr.Outcome != device.OK {
				t.Fatalf("seed %d: reference rejected a valid kernel: %s", seed, cr.Msg)
			}
			if !ref.GatesClean(k.Src, optimize) {
				t.Fatalf("seed %d: reference has armed hash gates", seed)
			}
		}
	}
}

// TestParseErrorIsBuildFailure: malformed source is a build failure on
// every configuration, never a panic.
func TestParseErrorIsBuildFailure(t *testing.T) {
	for _, cfg := range device.All() {
		cr := cfg.Compile("kernel void k( {", true)
		if cr.Outcome != device.BuildFailure {
			t.Errorf("config %d: outcome %s for malformed source", cfg.ID, cr.Outcome)
		}
	}
}

// TestMissingArgument: a missing kernel argument is a crash-class runtime
// error, not a Go panic.
func TestMissingArgument(t *testing.T) {
	src := `kernel void k(global ulong *out, global int *data) { out[0] = (ulong)data[0]; }`
	ref := device.Reference()
	cr := ref.Compile(src, true)
	if cr.Outcome != device.OK {
		t.Fatal(cr.Msg)
	}
	out := exec.NewBuffer(cltypes.TULong, 1)
	nd := exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}}
	rr := cr.Kernel.Run(nd, exec.Args{"out": {Buf: out}}, out, device.RunOptions{})
	if rr.Outcome == device.OK {
		t.Error("missing argument not reported")
	}
}

// TestOutcomeStrings pins the table abbreviations.
func TestOutcomeStrings(t *testing.T) {
	cases := map[device.Outcome]string{
		device.OK: "ok", device.BuildFailure: "bf", device.Crash: "c", device.Timeout: "to",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

// TestFuelFactorsOrdering: the emulator and the anonymous GPU must be the
// slow devices (their Table 4 timeout rates depend on it).
func TestFuelFactorsOrdering(t *testing.T) {
	slow := []int{9, 19}
	fast := []int{1, 2, 3, 4, 12, 13}
	for _, id := range slow {
		c := device.ByID(id)
		if c.NoOpt.FuelFactor > 0.5 {
			t.Errorf("config %d should be slow (factor %v)", id, c.NoOpt.FuelFactor)
		}
	}
	for _, id := range fast {
		c := device.ByID(id)
		if c.NoOpt.FuelFactor < 0.8 {
			t.Errorf("config %d should be fast (factor %v)", id, c.NoOpt.FuelFactor)
		}
	}
}
