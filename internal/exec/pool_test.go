package exec_test

import (
	"testing"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// TestPooledReuseAcrossDispatchModes is the reuse-poisoning gauntlet:
// with pool poisoning scribbling sentinel garbage over every recycled
// structure between launches and the immutable assertion armed, each
// kernel runs three rounds on one shared private pool, and every launch
// must match the fresh-pool reference byte for byte. Each round
// dispatches the kernel both ways a launch can evaluate it — the
// register VM's switch loop and the tree walk — so a launch state one
// engine (and the poisoner) just used is re-acquired by the other.
func TestPooledReuseAcrossDispatchModes(t *testing.T) {
	exec.SetDebugImmutable(true)
	exec.SetDebugPoisonPool(true)
	t.Cleanup(func() {
		exec.SetDebugImmutable(false)
		exec.SetDebugPoisonPool(false)
	})
	nd := exec.NDRange{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}}
	pool := exec.NewLaunchPool()
	engines := []testEngine{engineVM, engineTree}
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
		run := func(p *exec.LaunchPool, e testEngine) ([]uint64, error) {
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			runErr := exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
				NoBarrier:  !info.HasBarrier,
				HasFwdDecl: info.HasFwdDecl,
				Code:       codeFor(e, lowered),
				Pool:       p,
			})
			return out.Scalars(), runErr
		}
		// Fresh pool per reference launch: no state can carry over.
		// Kernels that error (on every engine) stay in the gauntlet:
		// the error path must also be reproducible from a poisoned pool.
		want, wantErr := run(exec.NewLaunchPool(), engineVM)
		for round := 0; round < 3; round++ {
			for _, e := range engines {
				got, gotErr := run(pool, e)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s round %d %s: err %v, want %v (poisoned pool state leaked)",
						k.name, round, e, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s round %d %s: out[%d] = %d, want %d (poisoned pool state leaked)",
							k.name, round, e, i, got[i], want[i])
					}
				}
			}
		}
	}
	if hits, _ := pool.Counters(); hits == 0 {
		t.Fatal("the shared pool was never hit: the gauntlet recycled nothing")
	}
}
