// Clreduce shrinks a kernel while a target configuration keeps disagreeing
// with the defect-free reference — the concurrency-aware test-case reducer
// the paper calls for in §8. Every candidate is validated on the reference
// with the race and divergence checker, so reductions never introduce the
// undefined behaviours that plagued manual reduction (§2.4).
//
// Usage:
//
//	clreduce -config 19 -noopt -nd 1x1x1/1x1x1 kernel.cl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/harness"
	"clfuzz/internal/oracle"
	"clfuzz/internal/reduce"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clreduce: ")
	cfgID := flag.Int("config", 0, "configuration whose misbehaviour to preserve")
	noopt := flag.Bool("noopt", false, "test the configuration with optimizations disabled")
	ndFlag := flag.String("nd", "16x1x1/16x1x1", "NDRange as GXxGYxGZ/LXxLYxLZ")
	rounds := flag.Int("rounds", 8, "maximum reduction rounds")
	flag.Parse()
	if flag.NArg() != 1 || *cfgID == 0 {
		log.Fatal("usage: clreduce -config N [flags] kernel.cl")
	}
	cfg := device.ByID(*cfgID)
	if cfg == nil {
		log.Fatalf("unknown configuration %d", *cfgID)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	nd, err := exec.ParseNDRange(*ndFlag)
	if err != nil {
		log.Fatalf("bad -nd: %v", err)
	}
	ref := device.Reference()
	interesting := func(cand string) bool {
		c, err := harness.AutoCase("cand", cand, nd)
		if err != nil {
			return false
		}
		a := harness.RunOn(cfg, !*noopt, c)
		b := harness.RunOn(ref, true, c)
		return a.Outcome == device.OK && b.Outcome == device.OK && !oracle.Equal(a.Output, b.Output)
	}
	res, err := reduce.Reduce(string(srcBytes), reduce.Options{
		Interesting: interesting,
		ND:          nd,
		MaxRounds:   *rounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reduced %d -> %d bytes (%d rounds, %d candidates, %d accepted)\n",
		len(srcBytes), len(res.Src), res.Rounds, res.Candidates, res.Accepted)
	fmt.Print(res.Src)
}
