package campaign_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"clfuzz/internal/benchmarks"
	"clfuzz/internal/bugs"
	"clfuzz/internal/campaign"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/opt"
	"clfuzz/internal/sema"
)

// shareKernel is one launch the sharing test runs on every
// configuration at both levels.
type shareKernel struct {
	name string
	src  string
	nd   exec.NDRange
	args func() (exec.Args, *exec.Buffer)
}

// outArgs is the argument factory of a kernel whose only argument is
// the ulong out buffer.
func outArgs(nd exec.NDRange) func() (exec.Args, *exec.Buffer) {
	return func() (exec.Args, *exec.Buffer) {
		out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		return exec.Args{"out": {Buf: out}}, out
	}
}

// gateTuned appends program-scope declarations to src (a comment would
// not survive canonical printing) until ok accepts the source.
func gateTuned(t *testing.T, src string, ok func(string) bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		tuned := src + fmt.Sprintf("constant int gate_tuning_%d = %d;\n", i, i)
		if ok(tuned) {
			return tuned
		}
	}
	t.Fatal("no gate tuning found")
	return ""
}

// structDeepKernel copies a struct holding a nested array and a scalar
// last field, the shape the hash-gated WCStructDeep defect corrupts. Its
// source is tuned so the defect's gate fires, while the launch gates of
// 9+ and 10+ stay clean: the two compile the kernel to one program, and
// differ in WCStructDeep. No exhibit or port fires this gate.
func structDeepKernel(t *testing.T) shareKernel {
	nd := exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{2, 1, 1}}
	src := gateTuned(t, `
typedef struct { ulong a[2]; ulong last; } D;

kernel void k(global ulong *out) {
    D x;
    x.a[0] = 1UL;
    x.a[1] = 2UL;
    x.last = get_linear_global_id() + 5UL;
    D y;
    y = x;
    out[get_linear_global_id()] = y.a[0] + y.a[1] * 10UL + y.last * 100UL;
}
`, func(src string) bool {
		return bugs.Gate(bugs.Hash(device.CanonicalSource(src)), 0x57de, 3) &&
			device.ByID(9).GatesClean(src, true) && device.ByID(10).GatesClean(src, true)
	})
	return shareKernel{name: "struct-deep", src: src, nd: nd, args: outArgs(nd)}
}

// fuelKernel loops for more steps than 19-'s budget and fewer than 1-'s,
// so it times out on the slowest configurations only; the two compile
// it to one program and differ in no defect bit it tests. It runs on a
// single work-item: at the default budget each launch takes a few
// hundred thousand steps, which keeps the race-detector runs short.
func fuelKernel(t *testing.T) shareKernel {
	nd := exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}}
	k := shareKernel{name: "fuel", nd: nd, args: outArgs(nd)}
	k.src = `
kernel void k(global ulong *out) {
    ulong acc = get_linear_global_id();
    for (int i = 0; i < 14500; i++) { acc = acc * 31UL + (ulong)i; }
    out[get_linear_global_id()] = acc;
}
`
	budget := func(id int) int64 {
		return int64(float64(device.DefaultFuel) * device.ByID(id).Level(false).FuelFactor)
	}
	cr := device.Reference().Compile(k.src, false)
	if cr.Outcome != device.OK {
		t.Fatalf("fuel kernel: %s", cr.Msg)
	}
	var st exec.Stats
	args, _ := k.args()
	if err := exec.Run(cr.Kernel.Prog, nd, args, exec.Options{Fuel: 1 << 30, Stats: &st}); err != nil {
		t.Fatalf("fuel kernel: %v", err)
	}
	if lo, hi := budget(19), budget(1); st.MaxThreadSteps <= lo || st.MaxThreadSteps >= hi {
		t.Fatalf("fuel kernel charges %d steps, want between 19-'s budget %d and 1-'s %d", st.MaxThreadSteps, lo, hi)
	}
	return k
}

// TestLaunchShareMatchesUnshared: sharing executions between the defect
// models of one matrix source is exact. Every exhibit, every port, a
// kernel that fires the hash-gated WCStructDeep defect and one whose
// step count separates the fuel budgets run on all 21 configurations
// plus the reference at both levels, and every unit's outcome, message
// and output equal those of a per-unit uncached compile and launch with
// no sharing. The serial variant runs representatives one at a time, so
// each finds every execution recorded before it; the concurrent one
// (width 1) has several goroutines reach one record at once. On the
// serial variant the engine's launch count must equal the executions
// the executor counted: crash-gated and shared verdicts execute nothing.
func TestLaunchShareMatchesUnshared(t *testing.T) {
	cfgs := append([]*device.Config{device.Reference()}, device.All()...)
	var units []campaign.Unit
	for _, cfg := range cfgs {
		units = append(units, campaign.Unit{Cfg: cfg, Opt: false}, campaign.Unit{Cfg: cfg, Opt: true})
	}
	reps, _ := campaign.GroupUnits(len(units), func(i int) campaign.ModelKey {
		return campaign.ModelKeyOf(units[i].Cfg, units[i].Opt)
	})
	var ks []shareKernel
	for _, e := range exhibits.All() {
		ks = append(ks, shareKernel{name: "exhibit " + e.ID, src: e.Src, nd: e.ND, args: e.Args})
	}
	for _, b := range benchmarks.All() {
		ks = append(ks, shareKernel{name: b.Name, src: b.Src, nd: b.ND, args: b.MakeArgs})
	}
	ks = append(ks, structDeepKernel(t), fuelKernel(t))

	var launched, reached int64
	for _, k := range ks {
		want := make([]device.RunResult, len(units))
		for i, u := range units {
			cr := u.Cfg.CompileUncached(k.src, u.Opt)
			if cr.Outcome != device.OK {
				want[i] = device.RunResult{Outcome: cr.Outcome, Msg: cr.Msg}
				continue
			}
			args, result := k.args()
			want[i] = cr.Kernel.Run(k.nd, args, result, device.RunOptions{})
		}
		m := campaign.Matrix{
			Name:    k.name,
			Sources: []string{k.src},
			ND:      k.nd,
			Buffers: func(int) (exec.Args, *exec.Buffer) { return k.args() },
			Units:   units,
		}
		for wi, width := range []int{runtime.GOMAXPROCS(0), 1} {
			eng := &campaign.Engine{Front: device.NewFrontCache(4)}
			vm0, tree0, _ := exec.EngineCounters()
			got := eng.RunMatrix(m, width)
			vm1, tree1, _ := exec.EngineCounters()
			for i, u := range units {
				g, w := got[i], want[i]
				if g.Outcome != w.Outcome || g.Msg != w.Msg || !slices.Equal(g.Output, w.Output) {
					t.Errorf("%s width %d on %s: got (%v, %q, %v), want (%v, %q, %v)",
						k.name, width, campaign.Key(u.Cfg, u.Opt), g.Outcome, g.Msg, g.Output, w.Outcome, w.Msg, w.Output)
				}
			}
			if wi > 0 {
				continue
			}
			_, n := eng.Counters()
			if ran := vm1 - vm0 + tree1 - tree0; n != ran {
				t.Errorf("%s: the engine counted %d launches, the executor ran %d", k.name, n, ran)
			}
			launched += n
			for _, i := range reps {
				if !got[i].Compile {
					reached++
				}
			}
		}
	}
	// The comparison proves nothing unless executions were shared.
	t.Logf("%d of %d representatives that reached the device executed", launched, reached)
	if launched >= reached {
		t.Errorf("no execution was shared: %d launches for %d representatives", launched, reached)
	}
}

// TestVMSharesAsTreeEngine: launch sharing keys on the compiled program,
// not on its bytecode, so the VM shares every execution the tree engine
// shares. The kernel is barrier-free and the folds and the optimizer
// leave it unchanged, so every configuration at one level compiles it to
// one program, although several fold-stage keys, each with its own
// lowering, reach it: its source is tuned to pass opt.GroupIDGate and it
// calls get_group_id outside any comparison, so configurations 9, 10 and
// 11 key the fold stage on WCGroupIDExpr, which leaves the program as it
// is, and configurations that ignore the optimization flag key it on
// optimize off. The test first requires at least two fold keys at each
// level, so a later narrowing of opt.FoldDefects cannot leave it unable
// to fail. The matrix runs the reference and all 21 configurations at
// one level, representatives one at a time, once with the process
// pinned to each engine: both must execute equally often and agree on
// every unit. (Keyed on the bytecode too, the VM executed 2 and 3 times
// where the tree engine executed once.)
func TestVMSharesAsTreeEngine(t *testing.T) {
	nd := exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{2, 1, 1}}
	src := gateTuned(t, `
kernel void k(global ulong *out) {
    ulong id = get_global_id(0);
    out[id] = get_group_id(0) * 3UL + id;
}
`, func(src string) bool {
		return opt.GroupIDGate(bugs.Hash(device.CanonicalSource(src))) &&
			device.ByID(9).GatesClean(src, false) && device.ByID(9).GatesClean(src, true)
	})
	fe := device.ParseFrontEnd(src)
	if fe.Err != nil {
		t.Fatal(fe.Err)
	}
	checked, _, err := sema.Check(fe.Prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	fold := opt.FoldDefects(checked, fe.Hash)
	cfgs := append([]*device.Config{device.Reference()}, device.All()...)
	saved := device.TreeEngine
	t.Cleanup(func() { device.TreeEngine = saved })
	for _, optimize := range []bool{false, true} {
		var units []campaign.Unit
		keys := map[bugs.Set]bool{}
		for _, cfg := range cfgs {
			units = append(units, campaign.Unit{Cfg: cfg, Opt: optimize})
			keys[cfg.Level(optimize).Defects&fold] = true
		}
		if len(keys) < 2 {
			t.Fatalf("optimize=%v: every configuration keys the fold stage on the same bits (FoldDefects %#x), so a share keyed on the bytecode too would pass", optimize, fold)
		}
		m := campaign.Matrix{
			Name:    "vm-shares",
			Sources: []string{src},
			ND:      nd,
			Buffers: func(int) (exec.Args, *exec.Buffer) { return outArgs(nd)() },
			Units:   units,
		}
		run := func(tree bool) ([]campaign.UnitResult, int64) {
			device.TreeEngine = tree
			eng := &campaign.Engine{Front: device.NewFrontCache(4)}
			rs := eng.RunMatrix(m, runtime.GOMAXPROCS(0))
			_, launched := eng.Counters()
			return rs, launched
		}
		vm, vmLaunched := run(false)
		tree, treeLaunched := run(true)
		t.Logf("optimize=%v: %d VM and %d tree-engine executions for %d units", optimize, vmLaunched, treeLaunched, len(units))
		if vmLaunched != treeLaunched {
			t.Errorf("optimize=%v: the VM executed %d times, the tree engine %d", optimize, vmLaunched, treeLaunched)
		}
		for i, u := range units {
			v, w := vm[i], tree[i]
			if v.Outcome != w.Outcome || v.Msg != w.Msg || !slices.Equal(v.Output, w.Output) {
				t.Errorf("%s: vm (%v, %q, %v), tree (%v, %q, %v)",
					campaign.Key(u.Cfg, u.Opt), v.Outcome, v.Msg, v.Output, w.Outcome, w.Msg, w.Output)
			}
		}
	}
}
