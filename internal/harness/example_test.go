package harness_test

import (
	"fmt"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/harness"
	"clfuzz/internal/oracle"
)

// ExampleRunEverywhere runs one differential test — the unit of the
// Table 4 campaign: a kernel executes on every Table 1 configuration at
// both optimization levels (compiled once, deduplicated by defect model),
// and the majority-vote oracle flags the configuration-levels whose
// output deviates.
func ExampleRunEverywhere() {
	src := `
kernel void k(global ulong *out) {
    ulong acc = 6;
    for (int i = 0; i < 6; i++) { acc = acc * 47UL + 3UL; }
    out[get_linear_global_id()] = acc;
}
`
	nd := exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{4, 1, 1}}
	c := harness.Case{
		Name: "demo",
		Src:  src,
		ND:   nd,
		Buffers: func() (exec.Args, *exec.Buffer) {
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			return exec.Args{"out": {Buf: out}}, out
		},
	}
	results := harness.RunEverywhere(device.All(), c)
	ok := 0
	for _, r := range results {
		if r.Outcome == device.OK {
			ok++
		}
	}
	fmt.Printf("%d results, %d ran ok\n", len(results), ok)
	fmt.Println("flagged wrong:", oracle.WrongCode(results))
	// Output:
	// 42 results, 32 ran ok
	// flagged wrong: [10- 10+ 11- 11+ 16- 16+]
}
