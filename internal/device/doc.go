// Package device models the 21 OpenCL (device, driver) configurations of
// the paper's Table 1 as simulated compilers: each configuration is a
// front-end quirk set, an optimization pipeline, an injected defect set
// per optimization level, hash-gate divisors for the "unpredictable" crash
// and internal-error classes, and a fuel budget factor that models
// relative device speed (the source of the paper's timeout rates).
// Vendors anonymized in the paper remain anonymized here.
//
// # Compilation pipeline
//
// A compiled kernel is an immutable artifact. Semantic analysis rebuilds
// the pristine parse into a fresh annotated program instead of mutating
// it, the fold and optimization passes are copy-on-write, and the
// executor never writes to the AST — so compiled programs can be shared
// freely. Compilation is therefore a two-level cache along what actually
// varies per configuration:
//
//   - The front end — lexing and parsing — is configuration-independent,
//     so it runs once per distinct kernel source and is memoized in a
//     bounded, concurrency-safe FrontCache (DefaultFrontCache) keyed by
//     the source hash. It and both back-end stages below are built on
//     internal/memo's bounded FIFO, which guards every entry with its
//     source text.
//   - The back end — semantic analysis under the level's defect set,
//     the compile-time defect gates, the always-on front-end folds, the
//     optimization pipeline, and lowering to the register bytecode the
//     VM runs — is memoized in a BackCache (DefaultBackCache) with one
//     memo per expensive stage, each keyed on the source hash and the
//     defect bits that stage can act on: sema per (source, semaDefects),
//     and fold/optimize/lower per (source, fold defects, effective
//     optimize), where the fold defects are the level's bits among those
//     opt.FoldDefects reports for the checked program. Every
//     (configuration, level) pair whose defect model those stages cannot
//     tell apart on the source gets the same read-only program, summary
//     and bytecode: a source with no rotate call, swizzle or gated
//     group-id call compiles (and lowers) once per effective optimize
//     level for all 21 configurations.
//     Only the cheap compile-time gates run on every compile.
//
// Lowering is total: a program internal/code cannot lower is a build
// failure whose message is the lowering error, on the cached and the
// uncached path alike. The engine is a fact of the process, not of a
// call: CLFUZZ_ENGINE=tree (TreeEngine) makes every compile hand out
// kernels without bytecode, which the executor runs on the tree-walking
// reference; otherwise every runnable Kernel carries its Code and runs on
// the VM. Lowering runs either way, so both engines see the same build
// failures.
//
// Config.Compile combines both levels; CompileFrontEnd reuses an
// already-parsed front end; CompileUncached bypasses every cache and is
// the reference path the determinism tests compare against (the caches
// must be byte-for-byte invisible). The result is a runnable Kernel
// whose Run method applies the launch-time defect gates (driver crashes,
// fuel scaling, residual wrong-code corruption) around exec.Run, which a
// Share (RunOptions.Share) may serve from a recorded execution. A result
// cache sits above this package: internal/campaign's ResultCache
// memoizes finished unit results per (source hash, defect model,
// argument digest), compile outcomes included, and is probed between
// the front end and the back end, so exact repeats of a unit — across
// cases, campaigns, and the acceptance filters — skip the back end and
// execution entirely.
//
// # Immutable-kernel contract
//
// Nothing may write to a Kernel's Prog after compilation: the same
// program is handed to every configuration with the same back-end key
// and may be executing on any number of goroutines. The executor
// enforces this in checked builds — exec.SetDebugImmutable makes every
// launch fingerprint the program before and after running — and the CI
// determinism jobs run with the assertion armed. Neither engine keeps
// state on AST nodes; the one annotation invisible to printed source,
// sema's Member field index, is written only during checking, into the
// fresh tree sema builds.
//
// Reference returns a defect-free configuration (not part of Table 1)
// used wherever a trustworthy executor is needed: expected-output
// generation, race hunting, and the reducer's validity checks.
package device
