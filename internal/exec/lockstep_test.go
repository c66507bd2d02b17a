package exec_test

import (
	"testing"
	"time"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// TestLockstepErrorDoesNotHang pins the lockstep scheduler's error path:
// when one thread of a goroutine-per-thread group dies (here: fuel
// exhaustion in thread 0 while the others finish normally), the launch
// must report the error and return — a thread left ready-but-gone in the
// scheduler would soak up a later grant and hang the group forever.
// Regression test for a deadlock found in review: the erroring goroutine
// returned without retiring from the lockstep, and the next finish's
// grant blocked on its full turn channel while holding the scheduler
// lock.
func TestLockstepErrorDoesNotHang(t *testing.T) {
	src := `
kernel void entry(global ulong *out) {
    ulong acc = 0;
    if (get_linear_local_id() == 0UL) {
        for (int i = 0; i < 100000; i++) { acc = acc + 1UL; }
    }
    out[get_linear_global_id()] = acc;
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err = sema.Check(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	nd := exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{4, 1, 1}}
	// CheckRaces forces the goroutine-per-thread path even without
	// barriers; the tiny fuel budget kills thread 0 mid-loop while
	// threads 1-3 finish within budget.
	run := func() error {
		out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
		return exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
			CheckRaces: true,
			Fuel:       2000,
		})
	}
	for i := 0; i < 5; i++ {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if _, ok := err.(*exec.TimeoutError); !ok {
				t.Fatalf("run %d: got %v, want TimeoutError", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d: launch hung (lockstep error-path deadlock)", i)
		}
	}
}
