package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite bench/golden from the real binaries")

// The benchmark runs from the repository root.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestGolden checks each campaign's output at goldenSeed against
// bench/golden; -update rewrites the files from the real binary first.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("builds cltables and runs every campaign")
	}
	for _, kind := range []campaignKind{table3, table4} {
		t.Run(kind.golden(), func(t *testing.T) {
			r := &runner{w: workload{kind: kind}, seed: goldenSeed, dir: t.TempDir()}
			var in inputs
			var err error
			if in.cltables, err = r.build(); err != nil {
				t.Fatal(err)
			}
			if *update {
				p, err := run(childEnv(), in.cltables, kind.args(goldenSeed)...)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join("bench", "golden", kind.golden()), []byte(p.stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.golden(in); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLayerOf pins how sampled stacks, innermost frame first, are charged
// to layers.
func TestLayerOf(t *testing.T) {
	const in = "clfuzz/internal/"
	f := func(fn, file string) frame { return frame{fn, "/src/internal/" + file} }
	rt := frame{"runtime.mallocgc", "/go/src/runtime/malloc.go"}
	for _, c := range []struct {
		name  string
		stack []frame
		want  string
	}{
		{"background GC", []frame{{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}}, "runtime"},
		{"allocation in the VM", []frame{rt, f(in+"exec.(*vmState).run", "exec/vm.go"), f(in+"exec.(*Machine).runGroupSequential", "exec/machine.go")}, "exec.seq"},
		{"lockstep work-item", []frame{f(in+"exec.(*vmState).run", "exec/vm.go"), f(in+"exec.(*Machine).runGroup.func1", "exec/machine.go")}, "exec.lockstep"},
		{"parse behind the front cache", []frame{f(in+"parser.Parse", "parser/parser.go"), f(in+"device.ParseFrontEnd", "device/frontend.go"), f(in+"campaign.(*Engine).RunCase", "campaign/campaign.go")}, "device.front"},
		{"parse in EMI derivation", []frame{f(in+"lexer.(*Lexer).Next", "lexer/lexer.go"), f(in+"parser.Parse", "parser/parser.go"), f(in+"emi.Derive", "emi/emi.go")}, "emi"},
		{"semantic analysis", []frame{f(in+"cltypes.Size", "cltypes/types.go"), f(in+"sema.Check", "sema/sema.go"), f(in+"device.(*Config).compileFE", "device/compile.go")}, "device.back"},
		{"back-end assembly", []frame{f(in+"device.(*BackCache).assemble", "device/backend.go")}, "device.back"},
		{"store read", []frame{{"syscall.read", "/go/src/syscall/zsyscall.go"}, f(in+"store.(*Store).Get", "store/store.go"), f(in+"campaign.(*Engine).RunCase", "campaign/campaign.go")}, "campaign.cache"},
		{"result cache", []frame{f(in+"campaign.(*ResultCache).get", "campaign/cache.go")}, "campaign.cache"},
		{"engine glue", []frame{f(in+"campaign.GroupUnits", "campaign/plan.go")}, "campaign"},
		{"generator printing", []frame{f(in+"ast.Print", "ast/print.go"), f(in+"generator.Generate", "generator/gen.go")}, "generator"},
		{"oracle", []frame{f(in+"oracle.WrongCode", "oracle/oracle.go"), f(in+"harness.foldTable4", "harness/table4.go")}, "oracle"},
		{"render", []frame{{"strings.(*Builder).WriteString", "/go/src/strings/builder.go"}, f(in+"harness.RenderTable3", "harness/table3.go")}, "harness"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
	if got := allocLayer([]frame{f(in+"exec.(*vmState).run", "exec/vm.go")}); got != "exec" {
		t.Errorf("allocLayer of a VM frame = %q, want exec", got)
	}
}

// TestDecodeProfile profiles calibrate in this process and checks that
// the decoded samples name its functions and file.
func TestDecodeProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for range 20 {
		calibrate()
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if len(s.values) != 2 || s.values[1] == 0 {
			t.Fatalf("sample values %v, want [count, nanoseconds]", s.values)
		}
		for _, f := range s.stack {
			found = found || (strings.HasPrefix(f.fn, "clfuzz/bench.calib") && filepath.Base(f.file) == "calib.go")
		}
	}
	if !found {
		t.Errorf("no sample of %d names a calib.go function", len(samples))
	}
}

// TestProfileCampaign runs a small Table 3 campaign profiled in this
// process and checks that its CPU time and allocation are charged to the
// layers it runs through, with nothing outside the layer list.
func TestProfileCampaign(t *testing.T) {
	p := table3.params(goldenSeed)
	p.Scale = 1
	rep, prof, err := profileCampaign(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 || rep.Samples == 0 || rep.Output == "" {
		t.Fatalf("profiled campaign left %d profile bytes, %d samples, %d output bytes", len(prof), rep.Samples, len(rep.Output))
	}
	var total int64
	for l, ns := range rep.LayerCPU {
		if !slices.Contains(layers, l) {
			t.Errorf("CPU charged to %q, not a layer", l)
		}
		total += ns
	}
	if exec := rep.LayerCPU["exec.seq"] + rep.LayerCPU["exec.lockstep"]; exec*4 < total {
		t.Errorf("exec has %d of %d ns; Table 3 is execution-bound", exec, total)
	}
	for _, l := range []string{"device.back", "exec.seq"} {
		if rep.LayerCPU[l] == 0 {
			t.Errorf("no CPU charged to %s", l)
		}
	}
	allocTo := append([]string{"campaign", "oracle", "harness", "runtime"}, allocLayers...)
	for l := range rep.AllocMB {
		if !slices.Contains(allocTo, l) {
			t.Errorf("allocation charged to %q, not a layer", l)
		}
	}
	if rep.AllocMB["exec"] == 0 {
		t.Errorf("allocation split %v has nothing in exec", rep.AllocMB)
	}
	for _, name := range []string{"exec.launches", "exec.vm_instrs", "device.back.calls", "campaign.cases"} {
		if rep.Counts[name] == 0 {
			t.Errorf("%s is 0", name)
		}
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
