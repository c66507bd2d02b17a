// Cldiff runs a kernel across the simulated configurations at both
// optimization levels, applies the majority-vote oracle (§3.2), and
// reports wrong-code verdicts — one shot of random differential testing.
//
// Usage:
//
//	cldiff -nd 64x1x1/16x1x1 kernel.cl
//	cldiff -all -nd 64x1x1/16x1x1 kernel.cl   # include below-threshold configs
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cldiff: ")
	ndFlag := flag.String("nd", "16x1x1/16x1x1", "NDRange as GXxGYxGZ/LXxLYxLZ")
	all := flag.Bool("all", false, "test all 21 configurations (default: above-threshold only)")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: cldiff [flags] kernel.cl")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	nd, err := exec.ParseNDRange(*ndFlag)
	if err != nil {
		log.Fatalf("bad -nd: %v", err)
	}
	cfgs := harness.AboveThresholdConfigs()
	if *all {
		cfgs = device.All()
	}
	c, err := harness.AutoCase(flag.Arg(0), string(src), nd)
	if err != nil {
		log.Fatal(err)
	}
	results := harness.RunEverywhere(cfgs, c)
	wrong := map[string]bool{}
	for _, k := range oracle.WrongCode(results) {
		wrong[k] = true
	}
	maj, haveMaj := oracle.Majority(results)
	fmt.Printf("%-6s %-8s %s\n", "conf", "outcome", "verdict")
	for _, r := range results {
		verdict := ""
		switch {
		case wrong[r.Key]:
			verdict = "WRONG CODE"
		case r.Outcome == device.OK:
			verdict = "agrees"
		}
		fmt.Printf("%-6s %-8s %s\n", r.Key, r.Outcome, verdict)
	}
	if !haveMaj {
		fmt.Println("no majority of at least 3 among computed results")
	} else {
		fmt.Printf("majority fingerprint: %s\n", maj)
	}
}
