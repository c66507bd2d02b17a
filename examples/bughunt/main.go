// Bughunt: the end-to-end random differential testing pipeline of the
// paper. Generate kernels, run each across the above-threshold
// configurations at both optimization levels, apply the majority-vote
// oracle, and when a configuration produces a wrong-code result, shrink
// the kernel with the concurrency-aware reducer (§8) and print the
// minimized bug exhibit.
package main

import (
	"fmt"
	"log"

	"clfuzz/internal/device"
	"clfuzz/internal/generator"
	"clfuzz/internal/harness"
	"clfuzz/internal/oracle"
	"clfuzz/internal/reduce"
)

func main() {
	log.SetFlags(0)
	cfgs := harness.AboveThresholdConfigs()
	ref := device.Reference()
	for seed := int64(0); seed < 400; seed++ {
		k := generator.Generate(generator.Options{
			Mode: generator.ModeAll, Seed: seed, MaxTotalThreads: 48,
		})
		c := harness.CaseFromKernel(k, fmt.Sprintf("seed-%d", seed))
		results := harness.RunEverywhere(cfgs, c)
		wrong := oracle.WrongCode(results)
		if len(wrong) == 0 {
			continue
		}
		fmt.Printf("seed %d: wrong code on %v\n", seed, wrong)

		// Reduce against the first culprit, preserving its disagreement
		// with the defect-free reference.
		culpritKey := wrong[0]
		var culprit *device.Config
		optimize := culpritKey[len(culpritKey)-1] == '+'
		for _, cfg := range cfgs {
			if harness.Key(cfg, optimize) == culpritKey {
				culprit = cfg
			}
		}
		interesting := func(cand string) bool {
			cc := harness.Case{Src: cand, ND: k.ND, Buffers: k.Buffers}
			a := harness.RunOn(culprit, optimize, cc)
			b := harness.RunOn(ref, true, cc)
			return a.Outcome == device.OK && b.Outcome == device.OK && !oracle.Equal(a.Output, b.Output)
		}
		res, err := reduce.Reduce(k.Src, reduce.Options{
			Interesting: interesting, ND: k.ND, MakeArgs: k.Buffers, MaxRounds: 5,
		})
		if err != nil {
			log.Printf("reduction failed: %v", err)
			fmt.Println(k.Src)
			return
		}
		fmt.Printf("reduced %d -> %d bytes; minimized exhibit for %s:\n%s\n",
			len(k.Src), len(res.Src), culpritKey, res.Src)
		return
	}
	fmt.Println("no wrong-code result in this seed window")
}
