// Cltables regenerates every table and figure of the paper's evaluation:
// Table 1 (configuration classification), Table 2 (benchmark inventory),
// Table 3 (EMI over benchmarks), Table 4 (intensive CLsmith testing),
// Table 5 (CLsmith+EMI) and the Figure 1/2 bug exhibits. The campaign
// sizes scale with -scale; ARCHITECTURE.md maps each table to its runner.
//
// -fuzz runs the coverage-guided fuzzing campaign instead: -chains
// independent feedback chains of -scale steps each, ranked corpus, swarm
// feature subsets and EMI/constant/operator/splice mutations, reporting
// coverage-over-time alongside wrong-code mismatches (see ARCHITECTURE.md,
// "Feedback loop"). It rides the same shard-record schema as the tables,
// so -shard and -merge compose with it unchanged.
//
// Campaigns shard across processes or machines: -shard i/n runs the i-th
// of n interleaved campaign slices and emits a machine-readable
// partial-results file, and -merge recombines the shard files into
// output byte-identical to the unsharded run. Any scheduler that can
// start processes drives these. SIGINT makes a shard run flush a valid
// partial file before exiting; re-running over the same -out resumes
// from it, executing only the missing cases. With -store, every finished
// unit is kept on disk, so a rerun of an interrupted campaign replays
// them as disk hits.
//
// Usage:
//
//	cltables -table 4 -scale 25
//	cltables -fuzz -chains 4 -scale 50
//	cltables -figure 2
//	cltables -all -scale 10
//	cltables -table 4 -scale 25 -shard 0/2 -out t4.shard0.json
//	cltables -table 4 -scale 25 -shard 1/2 -out t4.shard1.json
//	cltables -merge t4.shard0.json t4.shard1.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"clfuzz/internal/benchmarks"
	"clfuzz/internal/campaign"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cltables: ")
	table := flag.Int("table", 0, "regenerate table 1-5")
	figure := flag.Int("figure", 0, "regenerate figure 1 or 2 (bug exhibits)")
	all := flag.Bool("all", false, "regenerate everything")
	fuzz := flag.Bool("fuzz", false,
		"run the coverage-guided fuzzing campaign instead of a paper table (-scale steps per chain); composes with -shard/-merge")
	chains := flag.Int("chains", 0, "independent fuzzing chains for -fuzz (default 4)")
	fresh := flag.Bool("fresh", false,
		"disable the -fuzz feedback loop: every step generates fresh (the equal-budget pure-random baseline)")
	scale := flag.Int("scale", 10, "campaign size per unit (kernels per mode, EMI bases, fuzz steps per chain, ...)")
	seed := flag.Int64("seed", 1, "campaign seed")
	threads := flag.Int("threads", 64, "maximum thread count for generated kernels")
	shard := flag.String("shard", "",
		"run one campaign slice i/n (e.g. 0/2) and emit a partial-results file instead of the table")
	out := flag.String("out", "", "partial-results output path for -shard (default stdout); an existing valid partial file there is resumed")
	merge := flag.Bool("merge", false,
		"merge the shard files given as arguments into the rendered table (byte-identical to the unsharded run)")
	storeDir := flag.String("store", "",
		"disk-backed result store directory shared by shard runs and reruns (default $CLFUZZ_STORE; empty disables); campaign output is byte-identical with or without it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}
	// SIGINT/SIGTERM cancel cooperatively: campaigns stop dispatching,
	// in-flight cases finish, and a -shard run flushes a resumable partial
	// file before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *merge {
		if flag.NArg() == 0 {
			log.Fatal("usage: cltables -merge shard0.json shard1.json ...")
		}
		rendered, err := harness.MergeShardPaths(flag.Args())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rendered)
		return
	}

	if *fuzz {
		if *table != 0 {
			log.Fatal("-fuzz and -table are mutually exclusive")
		}
		*table = harness.FuzzTable
	}

	params := func(t int) harness.Params {
		return harness.Params{Table: t, Scale: *scale, Seed: *seed, Threads: *threads, Chains: *chains, Fresh: *fresh}
	}

	// Only a process that runs cases opens the store: a merge above runs
	// none.
	diskStore, err := campaign.EnableStore(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	if diskStore != nil {
		defer func() {
			dh, dm := campaign.Default.Results.DiskStats()
			st := diskStore.Stats()
			log.Printf("store summary: dir=%s disk-hits=%d disk-misses=%d corrupt=%d writes=%d write-errs=%d",
				diskStore.Dir(), dh, dm, st.Corrupt, st.Writes, st.WriteErrs)
		}()
	}

	if *shard != "" {
		if *table == 0 {
			log.Fatal("-shard requires -table or -fuzz")
		}
		runWorker(ctx, params(*table), *shard, *out)
		return
	}

	run := func(t int) {
		if t == 2 {
			fmt.Println(renderTable2())
			return
		}
		rendered, err := harness.RenderCampaign(ctx, params(t))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rendered)
	}
	switch {
	case *all:
		for t := 1; t <= 5; t++ {
			run(t)
		}
		fmt.Println(exhibits.Render(1))
		fmt.Println(exhibits.Render(2))
	case *table != 0:
		run(*table)
	case *figure != 0:
		fmt.Println(exhibits.Render(*figure))
	default:
		log.Fatal("specify -table N, -figure N or -all")
	}
}

// runWorker is the -shard mode: execute one campaign slice and emit its
// partial-results file. An existing valid file at the out path resumes —
// only the missing cases run — and a cancellation mid-run still flushes
// the valid partial file, then exits nonzero so whatever started the run
// sees that it did not finish.
func runWorker(ctx context.Context, p harness.Params, shardSpec, out string) {
	si, sn, err := harness.ParseShard(shardSpec)
	if err != nil {
		log.Fatalf("bad -shard: %v", err)
	}
	var prior *harness.ShardFile
	if out != "" {
		if pf, err := harness.LoadShardFile(out); err == nil &&
			pf.Params == p && pf.Shard == si && pf.Of == sn {
			prior = pf
			log.Printf("resuming shard %d/%d from %s (%d cases already done)", si, sn, out, len(pf.Records))
		}
	}
	sf, runErr := harness.RunShard(ctx, p, si, sn, prior)
	if sf == nil {
		log.Fatal(runErr)
	}
	if out == "" {
		if err := json.NewEncoder(os.Stdout).Encode(sf); err != nil {
			log.Fatal(err)
		}
	} else if err := writeShardFile(out, sf); err != nil {
		log.Fatal(err)
	}
	if runErr != nil {
		log.Printf("shard %d/%d canceled after %d records; partial file is resumable", si, sn, len(sf.Records))
		os.Exit(1)
	}
}

// writeShardFile installs the shard file atomically (temp file + rename),
// so a crash or SIGINT mid-write never replaces a valid partial file with
// a torn one.
func writeShardFile(path string, sf *harness.ShardFile) error {
	b, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func renderTable2() string {
	out := "Table 2. OpenCL benchmarks studied using EMI testing\n"
	out += fmt.Sprintf("%-9s %-11s %-34s %8s %6s %4s %6s\n",
		"Suite", "Benchmark", "Description", "Kernels", "LoC", "FP?", "race?")
	for _, b := range benchmarks.All() {
		fp := "x"
		if b.PaperUsesFP {
			fp = "X"
		}
		race := ""
		if b.HasRace {
			race = "RACE"
		}
		out += fmt.Sprintf("%-9s %-11s %-34s %8d %6d %4s %6s\n",
			b.Suite, b.Name, b.Description, b.PaperKernels, b.LoC(), fp, race)
	}
	return out
}
