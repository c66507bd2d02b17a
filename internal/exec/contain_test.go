package exec_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"clfuzz/internal/bugs"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// compileTest parses and checks src, returning the program and options
// seeded with the front end's static facts.
func compileTest(t *testing.T, src string) (args exec.Args, opts exec.Options, runIt func(opts exec.Options) error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, info, err := sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	nd := nd1(8, 4)
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	args = exec.Args{"out": {Buf: out}}
	opts = exec.Options{
		NoBarrier:  !info.HasBarrier,
		HasFwdDecl: info.HasFwdDecl,
	}
	return args, opts, func(opts exec.Options) error { return exec.Run(prog, nd, args, opts) }
}

const plainSrc = `
kernel void k(global ulong *out) {
    out[get_linear_global_id()] = 7UL;
}
`

const barrierSrc = `
kernel void k(global ulong *out) {
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_linear_global_id()] = 7UL;
}
`

// armPanicHook installs a fault hook that panics on every thread, and
// uninstalls it when the test finishes.
func armPanicHook(t *testing.T) {
	t.Helper()
	exec.SetFaultHook(func() { panic("injected evaluator fault") })
	t.Cleanup(func() { exec.SetFaultHook(nil) })
}

// requirePanicStats checks that a launch cut short by a panic claims to
// have tested every defect bit and used its whole budget: what it would
// have observed is unknown, so no other launch may be served its verdict.
func requirePanicStats(t *testing.T, st exec.Stats, fuel int64) {
	t.Helper()
	if st.Tested != ^bugs.Set(0) || st.MaxThreadSteps != fuel {
		t.Fatalf("panicked launch reported tested %#x and %d steps, want every bit and %d", st.Tested, st.MaxThreadSteps, fuel)
	}
}

// TestPanicContainedOnSequentialPath: an evaluator panic on the
// goroutine-free fast path surfaces as a *CrashError verdict, not a
// process abort.
func TestPanicContainedOnSequentialPath(t *testing.T) {
	armPanicHook(t)
	_, opts, runIt := compileTest(t, plainSrc)
	var st exec.Stats
	opts.Fuel, opts.Stats = 1000, &st
	err := runIt(opts)
	var crash *exec.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want *CrashError", err)
	}
	requirePanicStats(t, st, opts.Fuel)
}

// TestPanicContainedOnBarrierPath: a panic on one of a group's thread
// goroutines must retire that thread from the barrier and the lockstep
// schedule — the siblings drain instead of deadlocking — and the launch
// reports the crash.
func TestPanicContainedOnBarrierPath(t *testing.T) {
	armPanicHook(t)
	_, opts, runIt := compileTest(t, barrierSrc)
	if opts.NoBarrier {
		t.Fatal("test kernel unexpectedly barrier-free")
	}
	var st exec.Stats
	opts.Fuel, opts.Stats = 1000, &st
	err := runIt(opts)
	var crash *exec.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want *CrashError", err)
	}
	requirePanicStats(t, st, opts.Fuel)
}

// TestPanicContainmentCoexistsWithImmutableAssert: with the immutable-
// program assertion armed, a contained evaluator panic still yields a
// *CrashError — the assertion's own fingerprint check runs afterwards
// and stays quiet for an unmutated program.
func TestPanicContainmentCoexistsWithImmutableAssert(t *testing.T) {
	exec.SetDebugImmutable(true)
	t.Cleanup(func() { exec.SetDebugImmutable(false) })
	armPanicHook(t)
	_, opts, runIt := compileTest(t, plainSrc)
	err := runIt(opts)
	var crash *exec.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want *CrashError", err)
	}
}

// TestFaultHookCountsThreads pins the hook's placement: it runs once per
// thread, so fault plans can target precise points in a worker's stream.
func TestFaultHookCountsThreads(t *testing.T) {
	var calls atomic.Int64
	exec.SetFaultHook(func() { calls.Add(1) })
	t.Cleanup(func() { exec.SetFaultHook(nil) })
	_, opts, runIt := compileTest(t, plainSrc)
	if err := runIt(opts); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("hook ran %d times, want 8 (one per thread)", got)
	}
}

// TestRunCanceledContext: a context cancelled before (or during) the
// launch yields *CancelError — the scheduling outcome the campaign layer
// maps to device.Canceled and never records.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, opts, runIt := compileTest(t, plainSrc)
	opts.Ctx = ctx
	err := runIt(opts)
	var ce *exec.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
}
