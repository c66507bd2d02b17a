package exec_test

import (
	"fmt"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// ExampleRun executes a four-thread kernel directly on the interpreter:
// parse, type-check, allocate the result buffer, run, read the buffer.
// Hosts normally go through device.Kernel.Run, which layers the simulated
// configuration's defect model on top of this.
func ExampleRun() {
	src := `
kernel void k(global ulong *out) {
    out[get_linear_global_id()] = 10UL * (get_global_id(0) + 1);
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	prog, info, err := sema.Check(prog, 0)
	if err != nil {
		panic(err)
	}
	nd := exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{2, 1, 1}}
	out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
	err = exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
		NoBarrier: !info.HasBarrier,
	})
	fmt.Println(err, out.Scalars())
	// Output: <nil> [10 20 30 40]
}
