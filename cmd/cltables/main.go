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
// so -shard/-merge/-fleet compose with it unchanged.
//
// Campaigns shard across processes or machines: -shard i/n runs the i-th
// of n interleaved campaign slices and emits a machine-readable
// partial-results file, and -merge recombines the shard files into
// output byte-identical to the unsharded run. -fleet N supervises the
// whole partition itself: it re-execs N shard workers as isolated child
// processes with per-shard timeouts, retry with backoff, straggler
// re-dispatch and checkpoint/resume, so a crashing or hanging worker
// costs one attempt, never the campaign. SIGINT makes a worker flush a
// valid partial shard file before exiting; re-running over the same
// -out (or -checkpoint directory) resumes from it, executing only the
// missing cases. The CLFUZZ_FAULT environment variable injects
// deterministic worker failures for supervision testing (see
// internal/fault). Workers inherit the supervisor's environment, so
// CLFUZZ_ENGINE=tree runs a whole fleet on the tree-walking reference.
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
//	cltables -table 4 -scale 25 -fleet 4 -shard-timeout 10m -checkpoint ckpt/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	osexec "os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"clfuzz/internal/benchmarks"
	"clfuzz/internal/campaign"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/fault"
	"clfuzz/internal/fleet"
	"clfuzz/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cltables: ")
	table := flag.Int("table", 0, "regenerate table 1-5")
	figure := flag.Int("figure", 0, "regenerate figure 1 or 2 (bug exhibits)")
	all := flag.Bool("all", false, "regenerate everything")
	fuzz := flag.Bool("fuzz", false,
		"run the coverage-guided fuzzing campaign instead of a paper table (-scale steps per chain); composes with -shard/-merge/-fleet")
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
	fleetN := flag.Int("fleet", 0,
		"supervise the campaign across N isolated worker processes (re-execs this binary per shard)")
	shardTimeout := flag.Duration("shard-timeout", 0,
		"per-shard wall-clock budget under -fleet; a worker still running when it expires is killed and retried (0 = none)")
	retries := flag.Int("retries", 2,
		"re-dispatches a failing shard gets under -fleet before it is quarantined")
	checkpoint := flag.String("checkpoint", "",
		"checkpoint directory for -fleet shard files; re-running over it resumes, re-executing only missing shards (default: a temporary directory)")
	noSpeculate := flag.Bool("no-speculate", false,
		"disable straggler re-dispatch under -fleet (the speculative duplicate of the last running shard)")
	storeDir := flag.String("store", "",
		"disk-backed result store directory shared by shard workers, fleet runs and reruns (default $CLFUZZ_STORE; empty disables); campaign output is byte-identical with or without it")
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
	// in-flight cases finish, and shard workers flush a resumable partial
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

	if *fleetN > 0 {
		if *table == 0 || *table == 2 {
			log.Fatal("-fleet requires -table 1, 3, 4 or 5, or -fuzz (table 2 has no campaign)")
		}
		if err := runFleet(ctx, params(*table), fleetOptions{
			shards:      *fleetN,
			timeout:     *shardTimeout,
			retries:     *retries,
			checkpoint:  *checkpoint,
			noSpeculate: *noSpeculate,
			store:       *storeDir,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Only a process that runs cases opens the store: a merge or a fleet
	// supervisor above runs none (the supervisor hands -store to its
	// workers).
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
// the valid partial file (then exits nonzero so a supervisor counts the
// attempt as failed). CLFUZZ_FAULT faults fire from the per-case hook.
func runWorker(ctx context.Context, p harness.Params, shardSpec, out string) {
	si, sn, err := harness.ParseShard(shardSpec)
	if err != nil {
		log.Fatalf("bad -shard: %v", err)
	}
	opts := harness.ShardRunOptions{}
	if out != "" {
		if prior, err := harness.LoadShardFile(out); err == nil &&
			prior.Params == p && prior.Shard == si && prior.Of == sn {
			opts.Prior = prior
			log.Printf("resuming shard %d/%d from %s (%d cases already done)", si, sn, out, len(prior.Records))
		}
	}
	plan, err := fault.FromEnv()
	if err != nil {
		log.Fatal(err)
	}
	if plan.Active() {
		opts.OnCase = func(done, total int) {
			if plan.Point(si, done) {
				plan.Fire()
			}
		}
	}
	sf, runErr := harness.RunShardOpts(ctx, p, si, sn, opts)
	if sf == nil {
		log.Fatal(runErr)
	}
	if out == "" {
		if err := json.NewEncoder(os.Stdout).Encode(sf); err != nil {
			log.Fatal(err)
		}
	} else if betterFileExists(out, p, si, sn, len(sf.Records)) {
		// Never regress the checkpoint: a speculation loser canceled
		// mid-run must not flush its partial file over the winner's
		// complete one.
		log.Printf("leaving %s in place: it already has >= %d records", out, len(sf.Records))
	} else if err := writeShardFile(out, sf); err != nil {
		log.Fatal(err)
	}
	if runErr != nil {
		log.Printf("shard %d/%d canceled after %d records; partial file is resumable", si, sn, len(sf.Records))
		os.Exit(1)
	}
}

// betterFileExists reports whether the out path already holds a valid
// file for the same slice with at least n records, in which case writing
// ours would at best be a no-op and at worst lose completed cases.
func betterFileExists(out string, p harness.Params, shard, of, n int) bool {
	cur, err := harness.LoadShardFile(out)
	return err == nil && cur.Params == p && cur.Shard == shard && cur.Of == of &&
		len(cur.Records) >= n
}

// writeShardFile installs the shard file atomically (temp file + rename),
// so a supervisor — or a racing speculative duplicate — never observes a
// torn write under the final path.
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

type fleetOptions struct {
	shards      int
	timeout     time.Duration
	retries     int
	checkpoint  string
	noSpeculate bool
	store       string
}

// runFleet is the -fleet mode: supervise the campaign across shard
// worker processes (this binary re-exec'd with -shard i/n -out), print
// the merged table to stdout and a greppable supervision summary to
// stderr.
func runFleet(ctx context.Context, p harness.Params, o fleetOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ckpt := o.checkpoint
	if ckpt == "" {
		dir, err := os.MkdirTemp("", "clfuzz-fleet-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckpt = dir
	}
	worker := func(wctx context.Context, shard, of int, outPath string) *osexec.Cmd {
		cmd := osexec.CommandContext(wctx, exe,
			"-table", fmt.Sprint(p.Table),
			"-scale", fmt.Sprint(p.Scale),
			"-seed", fmt.Sprint(p.Seed),
			"-threads", fmt.Sprint(p.Threads),
			"-chains", fmt.Sprint(p.Chains),
			"-fresh="+fmt.Sprint(p.Fresh),
			"-store", o.store,
			"-shard", fmt.Sprintf("%d/%d", shard, of),
			"-out", outPath)
		cmd.Stderr = os.Stderr
		// A canceled attempt first gets SIGINT so the worker can flush its
		// resumable partial file; the kill follows after the grace window.
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 5 * time.Second
		return cmd
	}
	rep, err := fleet.Run(ctx, p, fleet.Config{
		Shards:        o.shards,
		ShardTimeout:  o.timeout,
		Retries:       o.retries,
		NoSpeculate:   o.noSpeculate,
		CheckpointDir: ckpt,
		Worker:        worker,
		Log:           func(format string, args ...any) { log.Printf(format, args...) },
	})
	if err != nil {
		return err
	}
	fmt.Println(rep.Output)
	log.Printf("fleet summary: launches=%d resumed=%d quarantined=%d failed-cases=%d",
		rep.Launches, rep.Resumed, len(rep.Quarantined), rep.FailedCases)
	return nil
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
