// Package clfuzz is a from-scratch Go reproduction of "Many-Core Compiler
// Fuzzing" (Lidbury, Lascu, Chong, Donaldson; PLDI 2015): the CLsmith
// random kernel generator with its six modes, dead-by-construction EMI
// testing with the leaf/compound/lift pruning strategies, a majority-vote
// differential testing oracle, and a full testing campaign against 21
// simulated OpenCL configurations carrying the paper's documented bug
// classes.
//
// The public surface of the repository is its commands (cmd/clsmith,
// cmd/clrun, cmd/cldiff, cmd/clemi, cmd/cltables, cmd/clreduce,
// cmd/clfuzz), its examples (examples/quickstart, examples/bughunt,
// examples/emibenchmark) and the benchmark harness in bench_test.go,
// which regenerates every table and figure of the paper's evaluation.
// README.md documents the commands; ARCHITECTURE.md walks the pipeline.
//
// The implementation lives under internal/, one package per pipeline
// stage, each with its own package documentation (go doc
// clfuzz/internal/<name>):
//
//   - lexer, parser, ast: OpenCL C subset front end and tree
//   - cltypes: the type system and wrapping integer semantics
//   - sema: type checking and the program feature summary
//   - opt: the simulated optimizer passes
//   - bugs: the injected compiler-defect model (§6, Figures 1-2)
//   - device: the 21 Table 1 configurations and the compile-once cache
//   - exec: the NDRange interpreter (flat scalar buffers, sequential
//     fast path, lockstep barrier schedule, race checker)
//   - generator: CLsmith (§4)
//   - emi: EMI injection and pruning (§5)
//   - oracle: the majority-vote oracle (§3.2)
//   - benchmarks: the Parboil/Rodinia integer ports (Table 2)
//   - harness: the Table 1/3/4/5 campaigns (case lists, records, folds,
//     sharding) and renderers (§7)
//   - exhibits: the Figure 1/2 bug kernels
//   - reduce: the concurrency-aware test-case reducer (§8)
package clfuzz
