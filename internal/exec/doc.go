// Package exec implements the OpenCL execution model for the subset: an
// NDRange of work-items organized into work-groups, the four memory
// spaces, collective barriers with fence semantics, read-modify-write
// atomics, and two interchangeable evaluation engines with per-thread
// fuel accounting — a register bytecode VM on the hot path and a
// tree-walking evaluator as the semantics reference.
//
// The executor optionally checks the two undefined behaviours that matter
// for compiler fuzzing — data races and barrier divergence (paper §3.1) —
// which lets property tests verify that generated kernels are
// deterministic by construction, and reproduces the paper's discovery of
// data races in the Parboil spmv and Rodinia myocyte benchmarks (§2.4).
//
// # Two engines
//
// Run evaluates kernel code with one of two engines, chosen by whether
// the launch carries bytecode:
//
//   - The register VM (whenever Options.Code carries a lowered program
//     from internal/code) dispatches a flat instruction stream with
//     operands pre-resolved to frame slots, flat-buffer word offsets,
//     field indices and function indices — no AST walk, no scope-chain
//     scan on the hot path. It has one dispatch loop (vmLoop, a switch
//     over the opcode) and one fuel model: each instruction charges its
//     lowered Cost as it dispatches. Campaigns run it unless the process
//     selects the reference with CLFUZZ_ENGINE=tree.
//   - The tree walker (Options.Code == nil; under CLFUZZ_ENGINE=tree
//     package device compiles every kernel without Code, so a whole
//     process runs on it) recursively evaluates the AST with
//     plain scope-chain lookup by name, a fresh scope per declaring
//     block and local operands. It is the reference, kept obviously
//     right rather than fast: the VM's instruction costs mirror its
//     step() charges one for one, so outcomes — including fuel-derived
//     timeouts — and buffer contents are byte-identical between the
//     engines. The determinism suites and the FuzzLowerMatchesTree
//     target pin this.
//
// Both engines share everything below expression evaluation: the cell
// arena, flat buffer words, lvalues, barrier machinery, race checker,
// the defect models, and the work-group schedules. EngineCounters
// reports which engine executed each launch process-wide.
//
// # Execution modes
//
// A launch runs its work-groups one after another in group order
// (dimension 0 fastest), and the first failing group ends it. Each group
// takes one of two schedules, both producing byte-identical results for
// race-free programs:
//
//   - Sequential fast path: barrier-free kernels (Options.NoBarrier, the
//     common case for generated tests) with race checking off run every
//     thread of every work-group back-to-back on the calling goroutine —
//     no goroutine spawns and no barrier objects.
//   - Lockstep goroutine-per-thread: kernels that reach barriers (and
//     any race-checked launch) run each work-group's threads on
//     goroutines synchronized by a collective barrier object with
//     divergence detection, serialized by the lockstep baton scheduler:
//     exactly one thread of the group executes at a time, in work-item
//     order, yielding at barriers. The schedule is one fixed, legal
//     interleaving, so atomic operations and shared stores — and with
//     them race reports, divergence verdicts and buffer contents — are
//     identical on every run of the same launch. Determinism here is
//     what the campaign result cache, the shard/merge pipeline and the
//     differential oracle itself rest on. A thread that fails records the
//     launch verdict and readies its parked siblings; each thread that
//     takes the baton afterwards retires without running kernel code.
//
// On both schedules no two threads of a launch ever execute at once, so
// every memory access is a plain load or store — no atomics and no locks,
// even for the atomic builtins — and no thread runs after the first
// failure. The -race suites check the first property; the second makes a
// failing launch report the same buffers, fuel high-water mark and
// coverage on either schedule.
//
// TestThreadedMatchesSwitch and the FuzzThreadedMatchesSwitch target pin
// the two schedules against each other on barrier-free kernels (withheld
// NoBarrier puts a launch on the lockstep path): same verdict, buffers,
// fuel high-water mark, tested defect bits and coverage, for failing
// launches too.
//
// # What a launch reports
//
// Besides its verdict and buffers, a launch reports in Stats its fuel
// high-water mark and the defect bits it tested; every read of
// Options.Defects goes through one Machine method that records the bit.
// The Stats doc says what the two bound, and device.Share relies on it.
//
// Parallelism lives above the executor: internal/campaign runs many
// launches at once, so one launch never needs more than one core.
//
// # Storage
//
// Values live in Cells (scalars, vectors, aggregates, pointers), except
// for scalar-element Buffers — every generated kernel's result, dead and
// comm arrays — whose elements live in a flat []uint64 backing store with
// no per-element heap cell; pointers into such buffers (Ptr.Flat) index
// the flat store directly. Private cells are arena-allocated per thread,
// including the scalar leaves of struct and array trees.
//
// # Read-only programs
//
// Run never writes to the program it executes. Compiled kernels are
// immutable artifacts shared across configurations (device.BackCache)
// and concurrent launches, and the campaign engine replays one launch's
// result for every configuration with the same defect model — a single
// in-place mutation would silently corrupt all of them. Neither engine
// keeps any state on AST nodes; the Member field index both read is
// written by sema, during checking, into the fresh tree it builds.
// SetDebugImmutable arms a checked mode — every launch fingerprints the
// program's printed source before and after executing and panics on any
// difference — which the determinism test suites run under -race.
//
// Aggregate loads borrow: loading a struct or array rvalue yields a
// read-only view of the stored cells rather than a deep copy (Value.Agg);
// consumers copy out before any further evaluation can write the
// underlying storage, and no other thread runs in between.
//
// The device layer (internal/device) wraps Run with the per-configuration
// defect models; hosts normally go through device.Kernel.Run rather than
// calling exec.Run directly.
package exec
