// Package code lowers the checked (and optimized) kernel AST into a
// flat, read-only register bytecode — the compile-once artifact the
// executor's VM dispatch loop runs instead of walking the tree.
//
// # Position in the pipeline
//
// Lowering sits between internal/opt and internal/exec, and Lower is the
// whole pipeline: the VM runs its output as is. The device layer's
// BackCache lowers each distinct folded/optimized program once (in its
// fold stage, next to the program it came from) and shares the
// resulting code.Program with every configuration and concurrent launch
// whose defect model compiles the source identically. Like the
// AST it is derived from, a lowered program is immutable: Lower never
// writes to the input tree, and the VM never writes to the bytecode.
//
// # The contract with the tree walker
//
// The tree-walking evaluator in internal/exec remains the semantics
// reference; the bytecode engine must be byte-identical to it, outcome
// and output, across the whole defect-model matrix. Two properties make
// that hold by construction:
//
//   - One instruction per evaluation step, without exception. Every
//     AST-node evaluation the tree walker charges fuel for lowers to
//     exactly one instruction with Cost 1 (statement charges fold into
//     the statement's first instruction); bookkeeping the tree walker
//     performs for free — lvalue resolution, jumps, scope entry — lowers
//     to Cost-0 instructions. The VM charges each instruction's Cost as
//     it dispatches it, so fuel totals, and therefore Timeout outcomes,
//     are identical on every execution path, including the do-while
//     loop's double condition evaluation.
//
//   - Pre-resolved operands, runtime-checked defects. Names resolve at
//     lowering time to frame slots and program-global indices (no scope
//     scan), struct members to field indices, and
//     calls to function indices; but every defect model keeps its runtime
//     half — the lowered StoreInfo records only the syntactic trigger
//     shape (deref-of-parameter, arrow-of-parameter), while the defect
//     set, hash gates, thread id and barrier history are consulted by the
//     VM at execution time, exactly like the tree walk. One lowered
//     program therefore serves every defect model that shares the checked
//     program.
//
// Lowering is total over the generator's subset, the corpus mutators,
// the benchmark ports and the exhibits. A construct it cannot express
// returns an error, which the device layer reports as a build failure
// carrying that error on every configuration: there is no per-program
// fallback, so every runnable kernel runs on the VM unless the process
// asks for the tree reference (CLFUZZ_ENGINE=tree). The
// FuzzLowerMatchesTree target and the engine-determinism suites pin the
// equivalence continuously.
package code
