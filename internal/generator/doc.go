// Package generator implements the CLsmith random kernel generator
// (paper §4): random OpenCL kernels that produce deterministic output by
// construction, in six modes.
//
// BASIC lifts the Csmith approach to OpenCL: every thread runs the same
// randomly generated computation over a per-thread "globals struct"
// (OpenCL 1.x has no program-scope mutable globals, §4.1) and writes a
// checksum of its state to result[tid]. VECTOR adds OpenCL vector types
// and builtins. BARRIER, ATOMIC SECTION and ATOMIC REDUCTION add
// deterministic intra-group communication using the three §4.2
// strategies. ALL combines everything.
//
// Determinism discipline (§4.2): thread-local ids never appear in
// expressions (only in the designated communication idioms), shared
// arrays are initialized uniformly and partitioned per work-group, values
// derived from communication flow only into the per-thread checksum and
// never into control flow, and all arithmetic goes through total "safe
// math" wrappers. Because communication is confined within a work-group,
// group results are independent of the order the executor runs groups in.
//
// Generate is the entry point: Options selects the mode, seed, thread
// budget and (for EMI testing, §5) the number of injected dead blocks.
// The resulting Kernel carries source text, launch geometry (ND), and
// Buffers/InvertedDeadBuffers factories for the host-side argument
// protocol. File map: generator.go (options, kernel assembly), build.go
// (kernel skeleton and communication idioms), stmt.go / expr.go (random
// statement and expression grammars).
package generator
