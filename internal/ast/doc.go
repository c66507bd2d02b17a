// Package ast defines the abstract syntax tree for the OpenCL C subset
// used by the fuzzer, together with a printer that renders trees back to
// OpenCL C source. The generator builds trees directly; the
// per-configuration compilers parse printed source back into trees, so
// the printer and parser round-trip.
//
// CloneProgram/CloneExpr produce the deep copies the per-configuration
// back end mutates (the shared, cached front end is never modified).
// Nodes are plain data with no evaluator state, so a checked program is
// read-only and safe to share across concurrent launches. File map:
// ast.go (node types), print.go (source printer), clone.go (deep
// copies).
package ast
