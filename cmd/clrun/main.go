// Clrun compiles and executes a kernel file on one simulated OpenCL
// configuration (Table 1), at either optimization level, printing the
// outcome and the result values — the per-test step of the paper's
// campaigns.
//
// Usage:
//
//	clrun -config 12 -noopt -nd 64x1x1/16x1x1 kernel.cl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clrun: ")
	cfgID := flag.Int("config", 0, "Table 1 configuration id (0 = defect-free reference)")
	noopt := flag.Bool("noopt", false, "disable optimizations (-cl-opt-disable)")
	ndFlag := flag.String("nd", "16x1x1/16x1x1", "NDRange as GXxGYxGZ/LXxLYxLZ")
	races := flag.Bool("races", false, "enable the data race and barrier divergence checker")
	storeDir := flag.String("store", "",
		"disk-backed result store directory shared across processes (default $CLFUZZ_STORE; empty disables)")
	cacheStats := flag.Bool("cachestats", false,
		"print compile-cache hit/miss counters (front-end parses, back-end compiles, bytecode lowering) and engine counters after the run")
	cover := flag.Bool("cover", false,
		"collect VM edge coverage and defect-site counters for the run and print them (outcome and outputs are unaffected; the CLFUZZ_ENGINE=tree reference collects none)")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: clrun [flags] kernel.cl")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	nd, err := parseND(*ndFlag)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := campaign.EnableStore(*storeDir); err != nil {
		log.Fatal(err)
	}
	cfg := device.Reference()
	if *cfgID != 0 {
		cfg = device.ByID(*cfgID)
		if cfg == nil {
			log.Fatalf("unknown configuration %d", *cfgID)
		}
	}
	c, err := harness.AutoCase(flag.Arg(0), string(src), nd)
	if err != nil {
		log.Fatal(err)
	}
	printCacheStats := func() {
		if !*cacheStats {
			return
		}
		fh, fm, fs := device.DefaultFrontCache.Stats()
		bh, bm, bs := device.DefaultBackCache.Stats()
		rh, rm, rs := campaign.Default.Results.Stats()
		cases, launches := campaign.Default.Counters()
		lo, lf := device.LowerStats()
		vmRuns, treeRuns, instrs := exec.EngineCounters()
		fmt.Fprintf(os.Stderr, "front cache:  %d hits, %d misses, %d entries\n", fh, fm, fs)
		fmt.Fprintf(os.Stderr, "back cache:   %d hits, %d misses, %d folded programs\n", bh, bm, bs)
		fmt.Fprintf(os.Stderr, "result cache: %d hits, %d misses, %d entries\n", rh, rm, rs)
		skipNonFlat, skipRace, skipCover := campaign.Default.CacheSkips()
		fmt.Fprintf(os.Stderr, "cache skips:  %d non-flat buffers, %d race-checked, %d coverage mismatches\n",
			skipNonFlat, skipRace, skipCover)
		if disk := campaign.Default.Results.Disk(); disk != nil {
			dh, dm := campaign.Default.Results.DiskStats()
			st := disk.Stats()
			fmt.Fprintf(os.Stderr, "disk store:   %d hits, %d misses (%d corrupt), %d writes (%d failed) at %s\n",
				dh, dm, st.Corrupt, st.Writes, st.WriteErrs, disk.Dir())
		}
		fmt.Fprintf(os.Stderr, "campaign:     %d cases, %d launches executed\n", cases, launches)
		fmt.Fprintf(os.Stderr, "lowering:     %d programs lowered, %d lowering failures\n", lo, lf)
		fmt.Fprintf(os.Stderr, "engine:       %d vm launches (%d instructions), %d tree launches\n", vmRuns, instrs, treeRuns)
	}
	var cov *exec.CoverMap
	if *cover {
		cov = new(exec.CoverMap)
	}
	printCover := func() {
		if cov == nil {
			return
		}
		sites := cov.SiteHits()
		fmt.Fprintf(os.Stderr, "coverage:     %d distinct VM edges\n", cov.Count())
		fmt.Fprintf(os.Stderr, "defect sites: deref-store=%d arrow-store=%d dead-loop=%d\n",
			sites[exec.CoverSiteDerefStore], sites[exec.CoverSiteArrowStore], sites[exec.CoverSiteDeadLoop])
	}
	// The run goes through the shared campaign engine — the same
	// front/back compile caches and cross-base result cache the table
	// campaigns use, so -cachestats reports live counters.
	rr := campaign.Default.RunCase(cfg, !*noopt, c, campaign.LaunchOptions{CheckRaces: *races, Cover: cov})
	if rr.Compile {
		fmt.Printf("outcome: %s\n%s\n", rr.Outcome, rr.Msg)
		printCacheStats()
		os.Exit(1)
	}
	defer printCacheStats()
	defer printCover()
	fmt.Printf("outcome: %s\n", rr.Outcome)
	if rr.Msg != "" {
		fmt.Println(rr.Msg)
	}
	if rr.Outcome == device.OK {
		strs := make([]string, len(rr.Output))
		for i, v := range rr.Output {
			strs[i] = fmt.Sprintf("%#x", v)
		}
		fmt.Println(strings.Join(strs, ","))
	}
}

func parseND(s string) (exec.NDRange, error) {
	var nd exec.NDRange
	if _, err := fmt.Sscanf(s, "%dx%dx%d/%dx%dx%d",
		&nd.Global[0], &nd.Global[1], &nd.Global[2],
		&nd.Local[0], &nd.Local[1], &nd.Local[2]); err != nil {
		return nd, fmt.Errorf("bad -nd %q: %v", s, err)
	}
	return nd, nd.Validate()
}
