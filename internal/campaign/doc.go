// Package campaign is the shared substrate every testing campaign runs
// on: a staged streaming pipeline that takes test cases from a source,
// compiles them through the memoized front end, deduplicates the
// per-configuration back-end launches by defect model, executes the
// surviving representatives in parallel, and hands results to the
// caller's classify/sink stage in deterministic case order.
//
// # Pipeline stages
//
// A campaign is Stream(n, work, sink): case indices flow through a
// bounded worker pool (the case stage), each case expands into a Matrix
// of (source, configuration, level) units (the launch stage), and
// finished records merge back into submission order before the sink
// folds them (the ordered merge). Queues between the stages are bounded,
// so memory stays proportional to the worker count, not the campaign
// size, and the sink observes exactly the order a serial loop would
// produce — campaign output is byte-identical to the fully serial
// schedule.
//
// # Model dedup
//
// Units whose defect models are identical (ModelKey) are byte-for-byte
// interchangeable — the simulator is deterministic — so RunMatrix runs
// one representative per (source, model) group and copies its result to
// the followers. Table 1's four identical NVIDIA entries, the shared
// Intel CPU no-opt model, Oclgrind's ignored optimization flag, and EMI
// prunings that collapse to identical printed source all collapse here.
//
// Representatives of different models still often repeat one
// execution, so the representatives of one source index share a
// device.Share, which serves a launch that would repeat a recorded
// execution exactly (hence the Matrix.Buffers contract). Model dedup
// stays in front of it: a follower costs one result copy, where a
// representative builds and digests its arguments, probes the result
// cache and, on a miss, looks up its compiled kernel.
//
// # Cross-base result cache
//
// The cache level between device.FrontCache (parses) and
// device.BackCache (compiled kernels): a unit runs front end → result
// probe → back end → execute. ResultCache memoizes finished unit
// results keyed by (printed-source hash, defect model, effective
// optimization, engine, argument digest), all known before the back end
// runs, so a hit skips the compile as well as the launch. Compile
// outcomes (build failures and compile timeouts) are results too, stored
// with their Compile bit, so a warm rerun compiles nothing. Where model
// dedup collapses replicas within one case, the result cache collapses
// them across cases and across campaigns — a Table 4 kernel already
// executed by the acceptance filter, an EMI variant whose pruning
// reproduces another base's text, or a repeated benchmark run all return
// memoized output. Results are only cached when every argument buffer is
// flat (scalar elements), so the digest covers the entire machine state
// a launch reads; everything else simply compiles and runs.
//
// # Parallelism
//
// The campaign owns all of it. Stream fans cases out over GOMAXPROCS
// workers, and RunMatrix fans one case's representatives out over the
// cores its caller leaves idle (all of them for a single differential
// test); case-level times representative-level fan-out never exceeds
// GOMAXPROCS. Each launch itself runs on one goroutine at a time: the
// executor runs work-groups in group order, and a group's threads one at
// a time under its lockstep baton, failing launches included.
//
// Entry points: Stream for the pipeline, Engine.RunMatrix for one case's
// unit matrix, Engine.RunCase for single launches (cldiff, clrun, the
// reducer, the exhibits), and Default — the process-wide engine wired to
// the default caches.
package campaign
