package device

import (
	"context"
	"os"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/code"
	"clfuzz/internal/exec"
	"clfuzz/internal/sema"
)

// Outcome classifies the result of compiling and running one test case,
// matching the categories of Tables 3-5: success, build failure, runtime
// crash, timeout.
type Outcome int

// Outcomes.
const (
	OK Outcome = iota
	BuildFailure
	Crash
	Timeout
	// Canceled marks a launch stopped by cooperative cancellation (a
	// supervisor deadline or SIGINT drain) before it finished. It is a
	// scheduling outcome, not a test observation: campaigns drop such
	// records rather than folding them into any table.
	Canceled
)

// String returns the table abbreviation of the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case BuildFailure:
		return "bf"
	case Crash:
		return "c"
	case Timeout:
		return "to"
	case Canceled:
		return "cancel"
	}
	return "?"
}

// DefaultFuel is the per-thread evaluation step budget corresponding to
// the paper's 60-second test timeout, before the configuration's fuel
// factor is applied. It sits at the 98th percentile of the generated-
// kernel step distribution, so a fuel-factor-1.0 configuration times out
// on roughly 2% of kernels (the NVIDIA -cl-opt-disable rate of Table 4)
// and the slow devices (factors near 0.25) on 15-20%.
const DefaultFuel = int64(290_000)

// CompileResult is the result of online compilation.
type CompileResult struct {
	Outcome Outcome
	Msg     string
	Kernel  *Kernel
}

// Kernel is a successfully compiled kernel, ready to run. Prog and Info
// form the immutable back-end artifact: they may be shared — via the
// BackCache — with every other configuration whose defect model compiles
// the same source to the same program, and with any number of concurrent
// launches (the executor never writes to the AST). Config, Optimized and
// the launch-time defect level are the cheap per-configuration wrapper
// around that shared artifact.
type Kernel struct {
	Config    *Config
	Optimized bool
	Prog      *ast.Program
	Info      *sema.Info
	// Code is the register bytecode lowered from Prog, cached alongside
	// it in the BackCache. Every successfully compiled kernel has it: a
	// program that does not lower is a build failure.
	Code  *code.Program
	Hash  uint64
	level Level
}

// DefaultEngine is the process-wide engine selection applied when
// RunOptions.Engine is EngineAuto: by default the register VM runs every
// kernel. The CLFUZZ_ENGINE environment variable ("tree" or "vm") sets
// it at startup and is the one engine switch: CI's tree-engine job and
// the benchmark's reference check run whole processes on the tree-walking
// reference with CLFUZZ_ENGINE=tree.
var DefaultEngine = exec.EngineAuto

func init() {
	e, err := exec.ParseEngine(os.Getenv("CLFUZZ_ENGINE"))
	if err != nil {
		// A misspelled override would otherwise silently run the VM in a
		// process that believes it is testing the tree reference engine.
		panic("device: bad CLFUZZ_ENGINE: " + err.Error())
	}
	DefaultEngine = e
}

// Compile runs the configuration's online compiler on kernel source:
// lexing/parsing (memoized in DefaultFrontCache, since the front end is
// configuration-independent), then the back end — semantic analysis with
// the configuration's front-end defects, the always-on front-end folds,
// and (unless disabled) the optimization pipeline — memoized stage by
// stage in DefaultBackCache. The result is OK with a runnable Kernel, or
// a build failure / compile timeout.
func (c *Config) Compile(src string, optimize bool) CompileResult {
	return c.compileFE(DefaultFrontCache.Get(src), optimize, DefaultBackCache)
}

// CompileUncached is Compile with both cache levels bypassed: every call
// re-lexes, re-parses, re-checks and re-optimizes the source. It exists so
// the determinism tests can compare campaign outputs against a cache-free
// reference path.
func (c *Config) CompileUncached(src string, optimize bool) CompileResult {
	return c.compileFE(ParseFrontEnd(src), optimize, nil)
}

// CompileFrontEnd runs the per-configuration back end on a shared front
// end, memoized in DefaultBackCache: configurations whose defect model
// compiles this source identically share one immutable checked program
// (see BackCache). The front end is never written to, so one FrontEnd may
// be compiled concurrently by any number of configurations.
func (c *Config) CompileFrontEnd(fe *FrontEnd, optimize bool) CompileResult {
	return c.compileFE(fe, optimize, DefaultBackCache)
}

// compileFE wraps the shared back-end artifact for this configuration.
// bc == nil bypasses the back cache (the determinism reference path).
func (c *Config) compileFE(fe *FrontEnd, optimize bool, bc *BackCache) CompileResult {
	if fe.Err != nil {
		return CompileResult{Outcome: BuildFailure, Msg: "parse error: " + fe.Err.Error()}
	}
	lvl := c.Level(optimize)
	effOpt := optimize && !c.NoOptimizer
	var be *backEnd
	if bc != nil {
		be = bc.assemble(fe, lvl, effOpt)
	} else {
		be = compileBackEnd(fe, lvl, effOpt)
	}
	if be.outcome != OK {
		return CompileResult{Outcome: be.outcome, Msg: be.msg}
	}
	return CompileResult{
		Outcome: OK,
		Kernel: &Kernel{
			Config:    c,
			Optimized: optimize,
			Prog:      be.prog,
			Info:      be.info,
			Code:      be.code,
			Hash:      fe.Hash,
			level:     lvl,
		},
	}
}

// RunResult is the result of executing a compiled kernel.
type RunResult struct {
	Outcome Outcome
	Msg     string
	// Output is the contents of the result buffer for OK outcomes (the
	// comma-separated list CLsmith prints, as raw values).
	Output []uint64
	// Shared reports that RunOptions.Share served the verdict: the kernel
	// did not execute.
	Shared bool
}

// RunOptions tunes kernel execution. The step budget is not among
// them: every launch gets DefaultFuel times its level's fuel factor.
type RunOptions struct {
	// CheckRaces enables the undefined-behaviour checker (off during
	// campaigns, as on real devices; on for the reference configuration
	// when hunting benchmark races).
	CheckRaces bool
	// Engine forces the evaluation engine for this run; EngineAuto (the
	// zero value) defers to DefaultEngine, under which kernels run on the
	// register VM. Outputs are byte-identical either way.
	Engine exec.Engine
	// Ctx cancels the launch cooperatively at work-group boundaries; a
	// launch stopped this way reports the Canceled outcome. nil runs to
	// completion.
	Ctx context.Context
	// Cover, when non-nil, accumulates VM edge coverage and defect-site
	// hit counts for this launch. Observation only: outcomes and outputs
	// are byte-identical with coverage on or off. Launches that resolve
	// to the tree engine record nothing.
	Cover *exec.CoverMap
	// Pool selects the executor launch-state pool this run recycles its
	// working set through; nil uses the executor's process-wide pool.
	// Pooling is observation-free.
	Pool *exec.LaunchPool
	// Share, when non-nil, is the record of executions of this run's
	// argument set, which serves or records the launch. Observation-free.
	Share *Share
}

// Run executes the kernel over the NDRange. result names the output buffer
// whose contents are reported (and corrupted by the residual-miscompilation
// gates); it must also appear in args. ro.Share may serve the execution
// between the crash gates and the wrong-code gates.
func (k *Kernel) Run(nd exec.NDRange, args exec.Args, result *exec.Buffer, ro RunOptions) RunResult {
	lvl := k.level
	// Launch-time crash gates: the unpredictable machine/driver crashes
	// of §6.
	if lvl.Defects.Has(bugs.CrashHash) || lvl.CrashDiv != 0 {
		if bugs.Gate(k.Hash, saltCrash, lvl.CrashDiv) {
			return RunResult{Outcome: Crash, Msg: "device driver crash"}
		}
	}
	if lvl.CrashBarrierDiv != 0 && k.Info.HasBarrier && bugs.Gate(k.Hash, saltCrashBar, lvl.CrashBarrierDiv) {
		return RunResult{Outcome: Crash, Msg: "runtime crash in barrier-using kernel"}
	}
	ff := lvl.FuelFactor
	if ff <= 0 {
		ff = 1
	}
	engine := ro.Engine
	if engine == exec.EngineAuto {
		engine = DefaultEngine
	}
	opts := exec.Options{
		Defects:    lvl.Defects,
		Hash:       k.Hash,
		Fuel:       int64(float64(DefaultFuel) * ff),
		CheckRaces: ro.CheckRaces,
		Ctx:        ro.Ctx,
		// Barrier-free kernels (the common case for generated tests) take
		// the executor's goroutine-free sequential fast path.
		NoBarrier:  !k.Info.HasBarrier,
		HasFwdDecl: k.Info.HasFwdDecl,
		Cover:      ro.Cover,
		Pool:       ro.Pool,
	}
	// The executor runs the VM exactly when it is handed bytecode.
	if engine != exec.EngineTree {
		opts.Code = k.Code
	}
	rr := ro.Share.run(k.Prog, opts, func(opts exec.Options) RunResult {
		return execute(k.Prog, nd, args, result, opts)
	})
	if rr.Outcome != OK {
		return rr
	}
	out := rr.Output
	// Residual miscompilation gates: corrupt the first element, modeling
	// a wrong-code defect not covered by a specific model.
	if bugs.Gate(k.Hash, saltWrong, lvl.WrongDiv) && len(out) > 0 {
		out[0] ^= 0x1
	}
	if k.Info.UsesVector && bugs.Gate(k.Hash, saltVecWrong, lvl.VecWrongDiv) && len(out) > 0 {
		out[0] ^= 0x2
	}
	return rr
}

// execute launches prog and classifies the executor's verdict; an OK
// result carries the contents of the result buffer.
func execute(prog *ast.Program, nd exec.NDRange, args exec.Args, result *exec.Buffer, opts exec.Options) RunResult {
	err := exec.Run(prog, nd, args, opts)
	switch err.(type) {
	case nil:
	case *exec.TimeoutError:
		return RunResult{Outcome: Timeout, Msg: err.Error()}
	case *exec.CancelError:
		return RunResult{Outcome: Canceled, Msg: err.Error()}
	case *exec.CrashError:
		return RunResult{Outcome: Crash, Msg: err.Error()}
	case *exec.RaceError, *exec.DivergenceError:
		// Undefined behaviour detected (only with CheckRaces); callers
		// that enable checking inspect Msg.
		return RunResult{Outcome: Crash, Msg: err.Error()}
	default:
		return RunResult{Outcome: Crash, Msg: err.Error()}
	}
	return RunResult{Outcome: OK, Output: result.Scalars()}
}

// GatesClean reports whether none of the configuration's hash-gated defect
// triggers fire for the given source at the given optimization level. The
// Figure 1/2 exhibit kernels tune their source text until the gates are
// clean for every configuration they document, so that the documented
// deterministic defect — not a coincidental hash-gated crash — is what a
// run observes. Gates key on the canonical normal form of the source,
// exactly as the compile and launch paths do.
func (c *Config) GatesClean(src string, optimize bool) bool {
	lvl := c.Level(optimize)
	h := bugs.Hash(CanonicalSource(src))
	for _, g := range []struct {
		salt uint64
		div  uint64
	}{
		{saltCrash, lvl.CrashDiv},
		{saltCrashBar, lvl.CrashBarrierDiv},
		{saltBF, lvl.BFDiv},
		{saltICEAttr, lvl.BFDiv},
		{saltICEPass, lvl.BFDiv},
		{saltICEBarrier, lvl.BFDiv},
		{saltSlow, lvl.SlowDiv},
		{saltWrong, lvl.WrongDiv},
		{saltVecWrong, lvl.VecWrongDiv},
	} {
		if bugs.Gate(h, g.salt, g.div) {
			return false
		}
	}
	return true
}
