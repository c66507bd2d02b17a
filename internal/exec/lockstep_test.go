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
// when one thread of a goroutine-per-thread group dies, the launch must
// report the error and return, and no thread may run kernel code after
// the failure — every kernel below stores 1 to each thread's slot only
// after the failing thread's loop, so the buffer must stay zero. Each
// shape puts the retiring siblings somewhere else:
//
//   - thread 0 exhausts its fuel before threads 1-3 start: each takes the
//     baton in turn and retires (regression test for a deadlock found in
//     review: the erroring goroutine returned without retiring from the
//     lockstep, and the next finish's grant blocked on its full turn
//     channel while holding the scheduler lock);
//   - threads 0-2 park at a barrier and thread 3 exhausts its fuel before
//     reaching it: the failing thread must make its parked siblings ready
//     so they can retire;
//   - the last arriver of a barrier round (thread 3) yields, and thread 0
//     then fails while threads 1-3 wait for the baton inside the barrier.
//
// Withholding NoBarrier puts the barrier-free kernel on the
// goroutine-per-thread path too, with and without the race checker.
func TestLockstepErrorDoesNotHang(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"fail-before-siblings-run", `
kernel void entry(global ulong *out) {
    ulong acc = 0;
    if (get_linear_local_id() == 0UL) {
        for (int i = 0; i < 100000; i++) { acc = acc + 1UL; }
    }
    out[get_linear_global_id()] = 1UL;
}
`},
		{"fail-while-siblings-park", `
kernel void entry(global ulong *out) {
    ulong acc = 0;
    if (get_linear_local_id() == 3UL) {
        for (int i = 0; i < 100000; i++) { acc = acc + 1UL; }
    }
    barrier(CLK_GLOBAL_MEM_FENCE);
    out[get_linear_global_id()] = 1UL;
}
`},
		{"fail-after-last-arriver-yields", `
kernel void entry(global ulong *out) {
    ulong acc = 0;
    barrier(CLK_GLOBAL_MEM_FENCE);
    if (get_linear_local_id() == 0UL) {
        for (int i = 0; i < 100000; i++) { acc = acc + 1UL; }
    }
    out[get_linear_global_id()] = 1UL;
}
`},
	}
	nd := exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{4, 1, 1}}
	for _, k := range kernels {
		prog, err := parser.Parse(k.src)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err = sema.Check(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, checkRaces := range []bool{false, true} {
			// The tiny fuel budget kills the looping thread mid-loop while
			// the others stay well within budget.
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			run := func() error {
				return exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
					CheckRaces: checkRaces,
					Fuel:       2000,
				})
			}
			for i := 0; i < 5; i++ {
				done := make(chan error, 1)
				go func() { done <- run() }()
				select {
				case err := <-done:
					if _, ok := err.(*exec.TimeoutError); !ok {
						t.Fatalf("%s races=%v run %d: got %v, want TimeoutError", k.name, checkRaces, i, err)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s races=%v run %d: launch hung (lockstep error-path deadlock)", k.name, checkRaces, i)
				}
				for j, v := range out.Scalars() {
					if v != 0 {
						t.Fatalf("%s races=%v run %d: out[%d] = %d, want 0 (a thread ran after the failure)", k.name, checkRaces, i, j, v)
					}
				}
			}
		}
	}
}
