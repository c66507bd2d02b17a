package device

import (
	"sync"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/exec"
)

// Share records the executions of one argument set — one NDRange and one
// set of argument values — so that a kernel whose launch would repeat a
// recorded execution is served its verdict instead of running. Every
// launch handed one Share (RunOptions.Share) must use the same NDRange
// and build its arguments identically; the kernels may differ in defect
// model and fuel. A Share is safe for concurrent use. The zero value is
// an empty record; it grows by one entry per execution and lives as long
// as its owner keeps it.
//
// A recorded execution serves a kernel when both run the same compiled
// program, their defect sets agree on every bit the execution tested,
// and their fuel budgets are equal or the execution's high-water mark is
// below both: exactly the condition under which the two launches take
// the same branch at every defect test and fuel check (see exec.Stats),
// so the served verdict and result words are byte-identical to a fresh
// run. The per-kernel crash and wrong-code gates still apply around it.
// Launches that collect coverage or check races neither read nor record.
type Share struct {
	mu   sync.Mutex
	runs []sharedRun
}

// sharedRun is one recorded execution.
type sharedRun struct {
	// prog identifies the compiled program: the back end shares one
	// artifact, and with it the source hash and semantic summary the
	// launch reads, between every defect model that compiles the source
	// identically. Two fold-stage keys that reach one prog may carry two
	// bytecode lowerings of it; lowering is deterministic, and the process
	// compiles every kernel under one engine, so prog alone decides.
	prog *ast.Program
	// defects and fuel are the launch's defect set and per-thread budget;
	// tested and used are what it observed of them.
	defects, tested bugs.Set
	fuel, used      int64
	// res is the verdict, with the result words before the wrong-code
	// gates.
	res RunResult
}

// serves reports whether r's verdict is the one a launch of prog with
// opts would reach.
func (r *sharedRun) serves(prog *ast.Program, opts *exec.Options) bool {
	return r.prog == prog &&
		(r.defects^opts.Defects)&r.tested == 0 &&
		(r.fuel == opts.Fuel || r.used < min(r.fuel, opts.Fuel))
}

// run returns the verdict of launching prog with opts: a recorded one
// when an execution serves it (not Executed), otherwise launch's, which
// it records. A cancelled verdict is never recorded. Two concurrent
// misses on one program may both execute; their verdicts are identical.
// A nil Share always launches.
func (s *Share) run(prog *ast.Program, opts exec.Options, launch func(exec.Options) RunResult) RunResult {
	if s == nil || opts.Cover != nil || opts.CheckRaces {
		return launch(opts)
	}
	s.mu.Lock()
	for i := range s.runs {
		if r := &s.runs[i]; r.serves(prog, &opts) {
			res := r.res
			s.mu.Unlock()
			res.Output = append([]uint64(nil), res.Output...)
			res.Executed = false
			return res
		}
	}
	s.mu.Unlock()
	var st exec.Stats
	opts.Stats = &st
	res := launch(opts)
	if res.Outcome != Canceled {
		rec := sharedRun{prog: prog, defects: opts.Defects, tested: st.Tested,
			fuel: opts.Fuel, used: st.MaxThreadSteps, res: res}
		rec.res.Output = append([]uint64(nil), res.Output...)
		s.mu.Lock()
		s.runs = append(s.runs, rec)
		s.mu.Unlock()
	}
	return res
}
