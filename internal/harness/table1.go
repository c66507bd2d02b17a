package harness

import (
	"context"
	"fmt"
	"strings"

	"clfuzz/internal/bugs"
	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
)

// Table1Row is one configuration's classification result (§7.1).
type Table1Row struct {
	Config *device.Config
	// Failures counts build failures, runtime crashes and wrong-code
	// results over both optimization levels.
	Failures int
	// Tests is the number of (kernel, level) observations.
	Tests int
	// SlowCompiles counts compile-side timeouts, the Xeon Phi
	// special-case signal (§7.1).
	SlowCompiles int
	// Above is our classification: at most 25% failures and no
	// prohibitively-slow-compilation pattern.
	Above bool
	// MatchesPaper reports agreement with the paper's Table 1 column.
	MatchesPaper bool
}

// FailureRate returns the failure fraction.
func (r Table1Row) FailureRate() float64 {
	if r.Tests == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Tests)
}

// Threshold is the §7.1 reliability threshold: a configuration lies above
// it when no more than 25% of initial tests fail.
const Threshold = 0.25

// t1Result is one serializable (configuration, level) observation of a
// Table 1 kernel.
type t1Result struct {
	Key     string   `json:"key"`
	Outcome int      `json:"outcome"`
	Output  []uint64 `json:"output,omitempty"`
	// CompileTO marks a timeout that arose during compilation — the §7.1
	// prohibitively-slow-compilation signal.
	CompileTO bool `json:"compile_to,omitempty"`
}

// t1Record is one kernel's shard record: its observations over the full
// (configuration, level) matrix.
type t1Record struct {
	Results []t1Result `json:"results"`
}

// table1Kernel regenerates case i of the §7.1 campaign deterministically
// from the campaign parameters: the case list is mode-major, perMode
// kernels per generator mode.
func table1Kernel(perMode int, seed int64, maxThreads, i int) *generator.Kernel {
	mode := generator.Modes[i/perMode]
	return generator.Generate(generator.Options{
		Mode: mode, Seed: seed + int64(i%perMode) + int64(mode)*100003,
		MaxTotalThreads: maxThreads,
	})
}

func table1Cases(perMode int) int { return len(generator.Modes) * perMode }

// table1Record runs case i of the §7.1 initial campaign — every
// configuration, with and without optimizations, over the initial
// kernel set (the paper used 600 kernels, 100 per mode) — through the
// campaign engine (model-deduplicated, result-cached).
func table1Record(ctx context.Context, eng *campaign.Engine, cfgs []*device.Config, perMode int, seed int64, maxThreads int, i, width int) t1Record {
	k := table1Kernel(perMode, seed, maxThreads, i)
	c := CaseFromKernel(k, fmt.Sprintf("init-%d", i))
	rs := eng.RunMatrix(matrixFor(ctx, cfgs, c), width)
	rec := t1Record{Results: make([]t1Result, len(rs))}
	for j, r := range rs {
		rec.Results[j] = t1Result{
			Key:       r.Key,
			Outcome:   int(r.Outcome),
			Output:    r.Output,
			CompileTO: r.Compile && r.Outcome == device.Timeout,
		}
	}
	return rec
}

// foldTable1 classifies the configurations from the per-kernel records
// (in case order), reproducing the §7.1 thresholding. Wrong-code results
// are judged by disagreement with the majority over all observations of
// a kernel.
func foldTable1(cfgs []*device.Config, records []t1Record) []Table1Row {
	fail := map[string]int{}
	slow := map[int]int{}
	tests := map[string]int{}
	for _, rec := range records {
		results := make([]oracle.Result, len(rec.Results))
		for i, r := range rec.Results {
			results[i] = oracle.Result{Key: r.Key, Outcome: device.Outcome(r.Outcome), Output: r.Output}
		}
		wrong := map[string]bool{}
		for _, k := range oracle.WrongCode(results) {
			wrong[k] = true
		}
		for i, r := range results {
			tests[r.Key]++
			switch {
			case r.Outcome == device.BuildFailure || r.Outcome == device.Crash:
				fail[r.Key]++
			case r.Outcome == device.OK && wrong[r.Key]:
				fail[r.Key]++
			case r.Outcome == device.Timeout && rec.Results[i].CompileTO:
				slow[keyID(r.Key)]++
			}
		}
	}
	var rows []Table1Row
	for _, cfg := range cfgs {
		f := fail[Key(cfg, false)] + fail[Key(cfg, true)]
		n := tests[Key(cfg, false)] + tests[Key(cfg, true)]
		row := Table1Row{
			Config:       cfg,
			Failures:     f,
			Tests:        n,
			SlowCompiles: slow[cfg.ID],
		}
		row.Above = row.FailureRate() <= Threshold
		// §7.1: the Xeon Phi was placed below the threshold because its
		// prohibitively slow compilation of struct+barrier kernels makes
		// intensive fuzzing impractical, independent of its failure rate.
		// The demotion applies only to that defect (configs with merely
		// slow optimizers, like 12/13, stay above, as in the paper).
		slowDefect := cfg.Opt.Defects.Has(bugs.FESlowStructBarrier) ||
			cfg.NoOpt.Defects.Has(bugs.FESlowStructBarrier)
		if slowDefect && row.SlowCompiles*10 > n {
			row.Above = false
		}
		row.MatchesPaper = row.Above == cfg.PaperAboveThreshold
		rows = append(rows, row)
	}
	return rows
}

func keyID(key string) int {
	var id int
	fmt.Sscanf(key, "%d", &id)
	return id
}

// RenderTable1 formats the classification like the paper's Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. The OpenCL implementations and devices tested\n")
	fmt.Fprintf(&b, "%-5s %-18s %-34s %-8s %-6s %8s %10s %s\n",
		"Conf.", "SDK", "Device", "Type", "OpenCL", "fail%", "above?", "paper")
	for _, r := range rows {
		mark := "X"
		if !r.Above {
			mark = "x"
		}
		paper := "X"
		if !r.Config.PaperAboveThreshold {
			paper = "x"
		}
		agree := ""
		if !r.MatchesPaper {
			agree = "  MISMATCH"
		}
		fmt.Fprintf(&b, "%-5d %-18s %-34s %-8s %-6s %7.1f%% %10s %6s%s\n",
			r.Config.ID, r.Config.SDK, r.Config.Device, r.Config.Type, r.Config.CLVersion,
			100*r.FailureRate(), mark, paper, agree)
	}
	return b.String()
}
