// Package opt implements the optimization passes of the simulated OpenCL
// compilers: constant folding, algebraic simplification, dead code
// elimination and bounded loop unrolling. OpenCL compiles with
// optimizations on by default and exposes -cl-opt-disable to turn them
// off (paper §6); the harness tests every configuration at both levels,
// and several injected defect models live inside these passes, mirroring
// where the corresponding real bugs were diagnosed (constant folding for
// the Intel rotate bug of Figure 2(b), expression optimization for the
// group-id comparison bug of Figure 2(e)).
//
// EarlyFolds applies the always-on front-end folds (host of the ±-level
// folding defects); Optimize runs the full pipeline. Every pass is
// copy-on-write: it returns its input program unchanged when nothing
// applies, or a new program sharing all untouched subtrees, and never
// writes to its input, so compiled programs are immutable and may be
// shared across configurations and concurrent launches (device.BackCache).
// FoldDefects reports which of the defect bits these passes read a
// checked program can trigger; device.BackCache keys its fold stage on
// them, so this package alone knows which bits its passes read.
// File map: opt.go (pipeline driver, COW rewriters, read-only
// inspectors), passes.go (individual passes and the defect-model
// rewrites), simplify.go (expression rewrites).
package opt
