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
func RunOn(cfg *device.Config, optimize bool, c Case) oracle.Result {
	r := campaign.Default.RunCase(cfg, optimize, c, campaign.LaunchOptions{})
	return r.AsOracle()
}

// RunOnUncached is RunOn with every cache level bypassed — the source is
// re-lexed, re-parsed, re-checked and re-optimized, and the kernel
// re-executed, for this call. It is the reference path the cache
// determinism tests compare against.
func RunOnUncached(cfg *device.Config, optimize bool, c Case) oracle.Result {
	key := Key(cfg, optimize)
	cr := cfg.CompileUncached(c.Src, optimize)
	if cr.Outcome != device.OK {
		return oracle.Result{Key: key, Outcome: cr.Outcome}
	}
	args, result := c.Buffers()
	rr := cr.Kernel.Run(c.ND, args, result, device.RunOptions{})
	return oracle.Result{Key: key, Outcome: rr.Outcome, Output: rr.Output}
}

// matrixFor builds the standard differential-test matrix: one source,
// every configuration at both optimization levels, in configuration
// order with the unoptimized level first. ctx (nil for run-to-
// completion) cancels the matrix's launches cooperatively.
func matrixFor(ctx context.Context, cfgs []*device.Config, c Case) campaign.Matrix {
	units := make([]campaign.Unit, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		units = append(units, campaign.Unit{Cfg: cfg, Opt: false}, campaign.Unit{Cfg: cfg, Opt: true})
	}
	return campaign.Matrix{
		Name:    c.Name,
		Sources: []string{c.Src},
		ND:      c.ND,
		Buffers: func(int) (exec.Args, *exec.Buffer) { return c.Buffers() },
		Units:   units,
		Ctx:     ctx,
	}
}

// RunEverywhere runs the case on every configuration at both optimization
// levels, in parallel, returning results keyed per Key. The case source is
// parsed exactly once; each (configuration, level) pair runs only the
// cheap per-configuration back end, deduplicated by defect model.
func RunEverywhere(cfgs []*device.Config, c Case) []oracle.Result {
	rs := campaign.Default.RunMatrix(matrixFor(nil, cfgs, c), 1)
	out := make([]oracle.Result, len(rs))
	for i, r := range rs {
		out[i] = r.AsOracle()
	}
	return out
}

// RunEverywhereUncached is RunEverywhere with every cache bypassed: each
// (configuration, level) pair re-parses, re-compiles and re-executes the
// source, as the seed harness did. Used by the determinism tests.
func RunEverywhereUncached(cfgs []*device.Config, c Case) []oracle.Result {
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
		return RunOnUncached(jobs[i].cfg, jobs[i].opt, c)
	}, func(i int, r oracle.Result) { results[i] = r })
	return results
}

// generateAccepted generates kernels in the given mode until n pass the
// acceptance filter the paper used (§7.3): each test must compile and
// terminate without crash or timeout on the generating configuration
// (config 1 with optimizations, the GTX Titan). Acceptance runs go
// through the campaign engine, so the campaign proper reuses them via
// the result cache.
func generateAccepted(eng *campaign.Engine, mode generator.Mode, n int, seed int64, maxThreads int) []*generator.Kernel {
	gen1 := device.ByID(1)
	return firstAccepted(n, seed, func(s int64) *generator.Kernel {
		return generator.Generate(generator.Options{Mode: mode, Seed: s, MaxTotalThreads: maxThreads})
	}, func(k *generator.Kernel) bool {
		return eng.RunCase(gen1, true, CaseFromKernel(k, ""), campaign.LaunchOptions{}).Outcome == device.OK
	})
}

// firstAccepted generates candidates from consecutive seeds, starting at
// seed, and returns the first n that accept keeps, in seed order.
// Generation is cheap and acceptance runs are the cost, so candidates
// are judged in parallel rounds of max(still needed, 4); keeping them in
// seed order makes the result independent of the batching.
func firstAccepted(n int, seed int64, gen func(seed int64) *generator.Kernel, accept func(*generator.Kernel) bool) []*generator.Kernel {
	var out []*generator.Kernel
	next := seed
	for len(out) < n {
		cands := make([]*generator.Kernel, max(n-len(out), 4))
		for i := range cands {
			cands[i] = gen(next)
			next++
		}
		campaign.Stream(nil, len(cands), func(i int) bool {
			return accept(cands[i])
		}, func(i int, ok bool) {
			if ok && len(out) < n {
				out = append(out, cands[i])
			}
		})
	}
	return out
}
