package code_test

import (
	"testing"

	"clfuzz/internal/device"
	"clfuzz/internal/generator"
)

// FuzzLowerMatchesTree is the engine-equivalence fuzz target: generate a
// random kernel, compile it on a random configuration (arming that
// configuration's defect models and optimization pipeline), lower it,
// and require the register VM and the tree walker to agree byte for byte
// — same outcome, same diagnostic, same buffer contents. CI runs it as a
// short -fuzztime smoke step; the corpus seeds span every generator mode
// including EMI blocks.
func FuzzLowerMatchesTree(f *testing.F) {
	f.Add(uint8(0), uint32(42), uint8(0), false, uint8(0))
	f.Add(uint8(1), uint32(7), uint8(3), true, uint8(0))
	f.Add(uint8(2), uint32(11), uint8(12), true, uint8(0))
	f.Add(uint8(3), uint32(5), uint8(17), false, uint8(2))
	f.Add(uint8(3), uint32(1000), uint8(7), true, uint8(3))
	modes := []generator.Mode{
		generator.ModeBasic, generator.ModeVector, generator.ModeBarrier, generator.ModeAll,
	}
	cfgs := device.All()
	// Compile on the VM whatever CLFUZZ_ENGINE selected, so every kernel
	// carries bytecode; a copy without it runs on the tree walker.
	saved := device.TreeEngine
	device.TreeEngine = false
	f.Cleanup(func() { device.TreeEngine = saved })
	f.Fuzz(func(t *testing.T, mode uint8, seed uint32, cfgID uint8, optimize bool, emi uint8) {
		k := generator.Generate(generator.Options{
			Mode:            modes[int(mode)%len(modes)],
			Seed:            int64(seed),
			MaxTotalThreads: 32,
			EMIBlocks:       int(emi % 4),
		})
		cfg := cfgs[int(cfgID)%len(cfgs)]
		cr := cfg.Compile(k.Src, optimize)
		if lowerFailed(cr) {
			t.Fatalf("kernel did not lower (mode %d seed %d): %s", mode, seed, cr.Msg)
		}
		if cr.Outcome != device.OK {
			return
		}
		run := func(kn *device.Kernel) device.RunResult {
			args, result := k.Buffers()
			return kn.Run(k.ND, args, result, device.RunOptions{})
		}
		tree := *cr.Kernel
		tree.Code = nil
		want := run(&tree)
		got := run(cr.Kernel)
		if got.Outcome != want.Outcome {
			t.Fatalf("outcome: vm %v, tree %v (msg %q vs %q)\n%s", got.Outcome, want.Outcome, got.Msg, want.Msg, k.Src)
		}
		if got.Msg != want.Msg {
			t.Fatalf("msg: vm %q, tree %q\n%s", got.Msg, want.Msg, k.Src)
		}
		if len(got.Output) != len(want.Output) {
			t.Fatalf("output length: vm %d, tree %d\n%s", len(got.Output), len(want.Output), k.Src)
		}
		for i := range want.Output {
			if got.Output[i] != want.Output[i] {
				t.Fatalf("out[%d]: vm %#x, tree %#x\n%s", i, got.Output[i], want.Output[i], k.Src)
			}
		}
	})
}
