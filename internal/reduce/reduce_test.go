package reduce_test

import (
	"strings"
	"testing"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/harness"
	"clfuzz/internal/oracle"
	"clfuzz/internal/reduce"
)

// TestReduceCommaBug reduces a kernel containing unrelated computation
// plus the Figure 2(f) comma pattern, chasing the Oclgrind wrong-code
// result; the reduced kernel must still reproduce the bug and be smaller.
func TestReduceCommaBug(t *testing.T) {
	src := `
kernel void entry(global ulong *result) {
    int a = 5;
    int b = 7;
    int c = safe_add(a, b);
    c = safe_mul(c, 3);
    a = safe_sub(c, b);
    short x = 1;
    uint y;
    for (y = 4294967295u; y >= 1u; ++y) {
        if ((x , 1)) { break; }
    }
    b = safe_add(b, a);
    result[get_linear_global_id()] = (ulong)y;
}
`
	nd := exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}}
	oclgrind := device.ByID(19)
	ref := device.Reference()
	// Differential predicate: Oclgrind disagrees with the reference — the
	// robust form of interestingness (a predicate like "output != K" would
	// let the reducer wander to a different program that trivially
	// satisfies it).
	interesting := func(cand string) bool {
		run := func(cfg *device.Config) ([]uint64, bool) {
			cr := cfg.Compile(cand, false)
			if cr.Outcome != device.OK {
				return nil, false
			}
			args, result := buffersFor(nd)
			rr := cr.Kernel.Run(nd, args, result, device.RunOptions{})
			return rr.Output, rr.Outcome == device.OK
		}
		a, okA := run(oclgrind)
		b, okB := run(ref)
		return okA && okB && !oracle.Equal(a, b)
	}
	res, err := reduce.Reduce(src, reduce.Options{
		Interesting: interesting,
		ND:          nd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Src) >= len(src) {
		t.Errorf("reduction did not shrink the kernel (%d -> %d bytes)", len(src), len(res.Src))
	}
	if !interesting(res.Src) {
		t.Error("reduced kernel no longer reproduces the bug")
	}
	if !strings.Contains(res.Src, ",") {
		t.Error("reduction removed the comma operator the bug needs")
	}
	if res.Accepted == 0 {
		t.Error("no reduction step was accepted")
	}
}

// TestReduceGeneratedWrongCode reduces a CLsmith-generated kernel that a
// buggy configuration miscompiles, with the differential verdict as the
// interestingness predicate — the end-to-end bug-hunting pipeline of the
// paper, plus the reducer of §8.
func TestReduceGeneratedWrongCode(t *testing.T) {
	if testing.Short() {
		t.Skip("reduction campaign")
	}
	ref := device.Reference()
	amd := device.ByID(16) // AMD CPU: deterministic char-first struct defect
	// Find a generated kernel the AMD configuration miscompiles.
	var found *generator.Kernel
	for seed := int64(0); seed < 150 && found == nil; seed++ {
		k := generator.Generate(generator.Options{Mode: generator.ModeBasic, Seed: 40000 + seed, MaxTotalThreads: 16})
		c := harness.CaseFromKernel(k, "hunt")
		rRef := harness.RunOn(ref, true, c)
		rAmd := harness.RunOn(amd, true, c)
		if rRef.Outcome == device.OK && rAmd.Outcome == device.OK && !oracle.Equal(rRef.Output, rAmd.Output) {
			found = k
		}
	}
	if found == nil {
		t.Skip("no miscompiled kernel in this seed window (rates are probabilistic)")
	}
	interesting := func(cand string) bool {
		c := harness.Case{Src: cand, ND: found.ND, Buffers: found.Buffers}
		rRef := harness.RunOn(ref, true, c)
		rAmd := harness.RunOn(amd, true, c)
		return rRef.Outcome == device.OK && rAmd.Outcome == device.OK && !oracle.Equal(rRef.Output, rAmd.Output)
	}
	res, err := reduce.Reduce(found.Src, reduce.Options{
		Interesting: interesting,
		ND:          found.ND,
		MakeArgs:    found.Buffers,
		MaxRounds:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Src) >= len(found.Src) {
		t.Errorf("no shrink: %d -> %d bytes", len(found.Src), len(res.Src))
	}
	t.Logf("reduced %d -> %d bytes in %d rounds (%d candidates, %d accepted)",
		len(found.Src), len(res.Src), res.Rounds, res.Candidates, res.Accepted)
}

func buffersFor(nd exec.NDRange) (exec.Args, *exec.Buffer) {
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	return exec.Args{"result": {Buf: out}}, out
}
