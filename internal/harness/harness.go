package harness

import (
	"context"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
)

// Case is one runnable test case: kernel source plus launch geometry and
// an argument factory (buffers must be fresh per execution). It is the
// campaign engine's case type; the alias keeps the harness API the
// paper-facing vocabulary.
type Case = campaign.Case

// CaseFromKernel adapts a generated kernel.
func CaseFromKernel(k *generator.Kernel, name string) Case {
	return Case{Name: name, Src: k.Src, ND: k.ND, Buffers: k.Buffers}
}

// Key renders the paper's configuration notation: "12-" for optimizations
// disabled, "12+" for enabled.
func Key(cfg *device.Config, optimize bool) string {
	return campaign.Key(cfg, optimize)
}

// RunOn compiles and executes the case on one configuration at one
// optimization level through the shared campaign engine (compile caches,
// cross-base result cache). It is the single-shot entry point used by
// cldiff, the reducer and the examples.
func RunOn(cfg *device.Config, optimize bool, c Case, baseFuel int64) oracle.Result {
	r := campaign.Default.RunCase(cfg, optimize, c, campaign.LaunchOptions{BaseFuel: baseFuel})
	return r.AsOracle()
}

// RunOnUncached is RunOn with every cache level bypassed — the source is
// re-lexed, re-parsed, re-checked and re-optimized, and the kernel
// re-executed, for this call. It is the reference path the cache
// determinism tests compare against.
func RunOnUncached(cfg *device.Config, optimize bool, c Case, baseFuel int64) oracle.Result {
	key := Key(cfg, optimize)
	cr := cfg.CompileUncached(c.Src, optimize)
	if cr.Outcome != device.OK {
		return oracle.Result{Key: key, Outcome: cr.Outcome}
	}
	args, result := c.Buffers()
	rr := cr.Kernel.Run(c.ND, args, result, device.RunOptions{BaseFuel: baseFuel})
	return oracle.Result{Key: key, Outcome: rr.Outcome, Output: rr.Output}
}

// matrixFor builds the standard differential-test matrix: one source,
// every configuration at both optimization levels, in configuration
// order with the unoptimized level first. ctx (nil for run-to-
// completion) cancels the matrix's launches cooperatively.
func matrixFor(ctx context.Context, cfgs []*device.Config, c Case, baseFuel int64) campaign.Matrix {
	units := make([]campaign.Unit, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		units = append(units, campaign.Unit{Cfg: cfg, Opt: false}, campaign.Unit{Cfg: cfg, Opt: true})
	}
	return campaign.Matrix{
		Name:     c.Name,
		Sources:  []string{c.Src},
		ND:       c.ND,
		Buffers:  func(int) (exec.Args, *exec.Buffer) { return c.Buffers() },
		BaseFuel: baseFuel,
		Units:    units,
		Ctx:      ctx,
	}
}

// RunEverywhere runs the case on every configuration at both optimization
// levels, in parallel, returning results keyed per Key. The case source is
// parsed exactly once; each (configuration, level) pair runs only the
// cheap per-configuration back end, deduplicated by defect model.
func RunEverywhere(cfgs []*device.Config, c Case, baseFuel int64) []oracle.Result {
	return runEverywhereEng(campaign.Default, cfgs, c, baseFuel, 1)
}

func runEverywhereEng(eng *campaign.Engine, cfgs []*device.Config, c Case, baseFuel int64, width int) []oracle.Result {
	rs := eng.RunMatrix(matrixFor(nil, cfgs, c, baseFuel), width)
	out := make([]oracle.Result, len(rs))
	for i, r := range rs {
		out[i] = r.AsOracle()
	}
	return out
}

// RunEverywhereUncached is RunEverywhere with every cache bypassed: each
// (configuration, level) pair re-parses, re-compiles and re-executes the
// source, as the seed harness did. Used by the determinism tests.
func RunEverywhereUncached(cfgs []*device.Config, c Case, baseFuel int64) []oracle.Result {
	type job struct {
		cfg *device.Config
		opt bool
	}
	var jobs []job
	for _, cfg := range cfgs {
		jobs = append(jobs, job{cfg, false}, job{cfg, true})
	}
	results := make([]oracle.Result, len(jobs))
	campaign.Stream(nil, len(jobs), func(i int) oracle.Result {
		return RunOnUncached(jobs[i].cfg, jobs[i].opt, c, baseFuel)
	}, func(i int, r oracle.Result) { results[i] = r })
	return results
}

// GenerateAccepted generates kernels in the given mode until n pass the
// acceptance filter the paper used (§7.3): each test must compile and
// terminate without crash or timeout on the generating configuration
// (config 1 with optimizations, the GTX Titan). Acceptance runs go
// through the campaign engine, so the campaign proper reuses them via
// the result cache.
func GenerateAccepted(mode generator.Mode, n int, seed int64, maxThreads int, emiBlocks func(i int) int, baseFuel int64) []*generator.Kernel {
	return generateAccepted(campaign.Default, mode, n, seed, maxThreads, emiBlocks, baseFuel)
}

func generateAccepted(eng *campaign.Engine, mode generator.Mode, n int, seed int64, maxThreads int, emiBlocks func(i int) int, baseFuel int64) []*generator.Kernel {
	gen1 := device.ByID(1)
	var out []*generator.Kernel
	// Generation is cheap; acceptance runs are the cost. Batch candidates
	// in parallel rounds until enough are accepted (candidates are
	// accepted in candidate order, so the result is independent of the
	// batching).
	next := seed
	for len(out) < n {
		batch := n - len(out)
		if batch < 4 {
			batch = 4
		}
		cands := make([]*generator.Kernel, batch)
		for i := range cands {
			eb := 0
			if emiBlocks != nil {
				eb = emiBlocks(int(next))
			}
			cands[i] = generator.Generate(generator.Options{
				Mode: mode, Seed: next, MaxTotalThreads: maxThreads, EMIBlocks: eb,
			})
			next++
		}
		campaign.Stream(nil, batch, func(i int) bool {
			r := eng.RunCase(gen1, true, CaseFromKernel(cands[i], ""), campaign.LaunchOptions{BaseFuel: baseFuel})
			return r.Outcome == device.OK
		}, func(i int, ok bool) {
			if ok && len(out) < n {
				out = append(out, cands[i])
			}
		})
	}
	return out
}
