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
//     the source hash.
//   - The back end — semantic analysis under the level's defect set,
//     the compile-time defect gates, the always-on front-end folds, the
//     optimization pipeline, and lowering to the register bytecode the
//     VM runs — is memoized in a BackCache
//     (DefaultBackCache) keyed by (source hash, defect set, gate
//     divisors, effective optimize). Every (configuration, level) pair
//     whose defect model compiles the source identically shares one
//     finished read-only Kernel: the four identical NVIDIA levels, the
//     shared Intel CPU no-opt model, and Oclgrind's ignored optimization
//     flag all collapse to single entries. Internally the BackCache is
//     staged along the defect bits each phase reads (semaDefects,
//     foldDefects), so even distinct models share the checked program
//     and the folded/optimized program whenever those phases cannot
//     tell the models apart.
//
// Lowering is total: a program internal/code cannot lower is a build
// failure whose message is the lowering error, on the cached and the
// uncached path alike, so every runnable Kernel carries bytecode and
// campaigns run one engine, the VM. The tree-walking reference runs only
// when CLFUZZ_ENGINE=tree (DefaultEngine) or RunOptions.Engine asks for
// it.
//
// Config.Compile combines both levels; CompileFrontEnd reuses an
// already-parsed front end; CompileUncached bypasses every cache and is
// the reference path the determinism tests compare against (the caches
// must be byte-for-byte invisible). The result is a runnable Kernel
// whose Run method applies the launch-time defect gates (driver crashes,
// fuel scaling, residual wrong-code corruption) around exec.Run, which a
// Share (RunOptions.Share) may serve from a recorded execution. A third
// cache level sits above this package: internal/campaign's
// ResultCache memoizes finished launch results per (source hash, defect
// model, argument digest), so exact repeats of a launch — across cases,
// campaigns, and the acceptance filters — skip execution entirely.
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
