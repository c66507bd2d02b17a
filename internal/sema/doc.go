// Package sema implements semantic analysis for the OpenCL C subset:
// symbol resolution, type checking with C99 usual arithmetic conversions,
// OpenCL vector operation typing, builtin signature checking, lvalue and
// const checking, and struct/union initializer checking.
//
// The front end is also the hook point for the injected front-end defects
// (package bugs): the Intel size_t rejection, the Altera vector
// rejections and the compile-hang pattern, mirroring where those bugs
// lived in the real implementations the paper tested.
//
// Check never writes to the program it is handed: it rebuilds the tree
// into a fresh, fully annotated program (sharing already-typed literals
// and bodiless declarations), so one pristine parse can be checked
// concurrently under any number of defect sets and the checked result
// can be published as an immutable artifact (device.BackCache). Node
// allocation is slab-batched (alloc.go): a checked program's nodes live
// and die together with the program.
//
// Check also returns an Info summary of program features — HasBarrier,
// HasFwdDecl, vector usage, struct sizes — that the defect models key on
// and that the device layer converts into the executor's static
// guarantees (exec.Options.NoBarrier, which gates the sequential fast
// path).
// The annotations themselves never depend on the defect set (defects only
// gate rejections), which is what lets the device layer share one checked
// program across defect models.
package sema
