// Clsmith generates random deterministic OpenCL kernels in the paper's six
// modes (§4) and writes them as .cl files alongside a .nd file recording
// the randomized launch geometry in the form clrun and cldiff take as
// -nd (GXxGYxGZ/LXxLYxLZ).
//
// Usage:
//
//	clsmith -mode ALL -n 10 -seed 1 -o /tmp/kernels
//	clsmith -mode BARRIER -emi 3 -n 5 -o /tmp/emi
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clsmith: ")
	mode := flag.String("mode", "ALL", "generation mode: BASIC, VECTOR, BARRIER, ATOMIC SECTION, ATOMIC REDUCTION, ALL")
	n := flag.Int("n", 1, "number of kernels to generate")
	seed := flag.Int64("seed", 1, "starting seed (kernel i uses seed+i)")
	outDir := flag.String("o", ".", "output directory")
	emi := flag.Int("emi", 0, "number of dead-by-construction EMI blocks to inject (§5)")
	threads := flag.Int("threads", 256, "maximum total thread count for the randomized grid")
	flag.Parse()

	m, err := generator.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *n; i++ {
		k := generator.Generate(generator.Options{
			Mode: m, Seed: *seed + int64(i), MaxTotalThreads: *threads, EMIBlocks: *emi,
		})
		base := filepath.Join(*outDir, fmt.Sprintf("clsmith_%s_%d", sanitize(m.String()), *seed+int64(i)))
		if err := os.WriteFile(base+".cl", []byte(k.Src), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(base+".nd", []byte(exec.FormatNDRange(k.ND)+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s.cl  (mode %s, NDRange %v / %v)\n", base, m, k.ND.Global, k.ND.Local)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}
