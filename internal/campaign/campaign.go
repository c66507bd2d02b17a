package campaign

import (
	"context"
	"fmt"
	"sync/atomic"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/oracle"
)

// Case is one runnable test case: kernel source plus launch geometry and
// an argument factory (buffers must be fresh per execution).
type Case struct {
	Name string
	Src  string
	ND   exec.NDRange
	// Buffers builds a fresh argument set and names the result buffer
	// whose contents the campaign reports.
	Buffers func() (exec.Args, *exec.Buffer)
}

// Key renders the paper's configuration notation: "12-" for
// optimizations disabled, "12+" for enabled.
func Key(cfg *device.Config, optimize bool) string {
	if optimize {
		return fmt.Sprintf("%d+", cfg.ID)
	}
	return fmt.Sprintf("%d-", cfg.ID)
}

// ModelKey identifies everything about a (configuration, level) pair
// that can influence a test outcome in the simulation: the full defect
// model and whether the optimizer effectively runs. Pairs with equal
// keys are byte-for-byte interchangeable — the executor is deterministic
// — so a campaign runs one representative per model and copies the
// result to the others.
type ModelKey struct {
	Lvl device.Level
	// EffOpt is the optimization setting after NoOptimizer is applied.
	EffOpt bool
}

// ModelKeyOf returns the dedup key for a (configuration, level) pair.
func ModelKeyOf(cfg *device.Config, optimize bool) ModelKey {
	return ModelKey{Lvl: cfg.Level(optimize), EffOpt: optimize && !cfg.NoOptimizer}
}

// GroupUnits partitions unit indices 0..n-1 into representatives (first
// unit of each distinct key, in order) and followers (unit index → its
// representative's index). Campaigns use it to run one unit per defect
// model and copy the deterministic result to the others.
func GroupUnits[K comparable](n int, key func(i int) K) (reps []int, follower map[int]int) {
	follower = make(map[int]int)
	seen := make(map[K]int, n)
	for i := 0; i < n; i++ {
		k := key(i)
		if r, ok := seen[k]; ok {
			follower[i] = r
		} else {
			seen[k] = i
			reps = append(reps, i)
		}
	}
	return reps, follower
}

// Unit is one (source, configuration, level) launch within a Matrix.
type Unit struct {
	// Src indexes Matrix.Sources.
	Src int
	Cfg *device.Config
	Opt bool
}

// UnitResult is the outcome of one unit.
type UnitResult struct {
	// Key is the paper's configuration notation ("12+").
	Key     string
	Outcome device.Outcome
	Msg     string
	Output  []uint64
	// Compile reports that the outcome was produced by the compile stage
	// (build failures always; timeouts when the compiler, not the kernel,
	// exceeded its budget — the Table 1 slow-compilation signal). The
	// result tiers store it with the outcome, so a cached compile outcome
	// keeps it.
	Compile bool
	// Cached reports that the result came from the cross-base result
	// cache (memory or disk) rather than a fresh compile and execution;
	// compile outcomes are served from it too.
	Cached bool
}

// AsOracle converts the unit result to the differential-testing oracle's
// observation type.
func (r UnitResult) AsOracle() oracle.Result {
	return oracle.Result{Key: r.Key, Outcome: r.Outcome, Output: r.Output}
}

// Matrix is one case's launch matrix: a set of variant sources sharing a
// single launch geometry, and the (source, configuration, level) units
// to run. Units sharing a source text and a defect model execute once,
// and each runs with its level's step budget.
type Matrix struct {
	Name string
	// Sources are the variant kernel texts (a plain differential test has
	// exactly one).
	Sources []string
	ND      exec.NDRange
	// Buffers builds a fresh argument set for the given source index.
	// Every call for one index must build identical arguments: the units
	// of a source share executions across defect models (see
	// device.Share). Campaigns whose variants share one argument shape
	// (Tables 1/4/5) ignore the index.
	Buffers func(src int) (exec.Args, *exec.Buffer)
	Units   []Unit
	// Ctx cancels the matrix cooperatively: representatives not yet
	// launched when it fires report device.Canceled instead of executing.
	// A record folded from a cancelled matrix is poisoned and must be
	// dropped, which the shard driver does (see harness.RunShardOpts). nil
	// runs to completion.
	Ctx context.Context
}

// Engine bundles the caches and counters one campaign substrate shares:
// the front-end parse cache and the cross-base result cache (nil
// disables result memoization — the determinism reference
// configuration). The zero value is usable but cache-less.
type Engine struct {
	Front   *device.FrontCache
	Results *ResultCache
	// Cover, when non-nil, accumulates edge coverage and defect-site hits
	// across every launch this engine runs (LaunchOptions.Cover overrides
	// it per call). Coverage accumulation is independent of the result
	// cache: each covered launch collects into a private per-launch map
	// whose delta is memoized alongside the result, and a cache hit
	// replays the stored delta — so the accumulated map is byte-identical
	// whatever the hit/miss pattern.
	Cover *exec.CoverMap
	// Pool, when non-nil, is the executor launch-state pool every launch
	// this engine runs recycles its working set through; nil uses the
	// executor's process-wide pool. Pooling is observation-free, so it
	// never enters the result-cache key.
	Pool *exec.LaunchPool

	cases    atomic.Int64
	launches atomic.Int64

	// Per-reason result-cache skip counters: units that had to compile
	// and execute even though a result cache was wired, broken down by
	// why the cache could not serve (or record) them. The probe precedes
	// the compile, so units whose compile fails count too. skipNonFlat
	// counts units with cell-backed (aggregate/vector-element) buffers
	// the digest cannot cover; skipRace counts race-checked runs, whose
	// diagnostics depend on the checker; skipCover counts misses where
	// the same unit was memoized under the opposite coverage population
	// (the cover bit of the key splits covered from uncovered entries).
	skipNonFlat atomic.Int64
	skipRace    atomic.Int64
	skipCover   atomic.Int64
}

// Default is the process-wide campaign engine, wired to the default
// compile caches; the table campaigns, exhibits and CLI tools all share
// it, so its result cache memoizes across campaigns in one process.
var Default = &Engine{Front: device.DefaultFrontCache, Results: NewResultCache(8192)}

// Counters reports the engine's cumulative throughput counters: cases
// (matrices or single launches) started and launches the executor ran
// (device.RunResult.Executed). Model-dedup followers, result-cache
// hits, compile outcomes, launch-time crash gates and launches served by
// another model's execution in their matrix execute nothing.
func (e *Engine) Counters() (cases, launches int64) {
	return e.cases.Load(), e.launches.Load()
}

// CacheSkips reports the per-reason result-cache skip counters: units
// with non-flat (cell-backed) buffers, race-checked units, and misses
// whose result was memoized under the opposite coverage population. A
// unit counts whether it then executes or fails to compile.
func (e *Engine) CacheSkips() (nonFlat, race, cover int64) {
	return e.skipNonFlat.Load(), e.skipRace.Load(), e.skipCover.Load()
}

// LaunchOptions tunes a single-case run (Engine.RunCase). Every launch
// gets the one step budget its configuration level defines (see
// device.RunOptions).
type LaunchOptions struct {
	// CheckRaces enables the undefined-behaviour checker; checked runs
	// bypass the result cache (their diagnostics depend on the checker).
	CheckRaces bool
	// Ctx cancels the launch cooperatively: a cancelled context skips the
	// compile/execute chain (or stops an in-flight execution at the next
	// work-group boundary) and yields a device.Canceled result, which is
	// never cached. nil runs to completion.
	Ctx context.Context
	// Cover, when non-nil, receives this launch's edge coverage and
	// defect-site hits (overriding the engine-wide Engine.Cover).
	// Observation only: results are byte-identical with coverage on or
	// off, and covered/uncovered runs never share result-cache entries.
	Cover *exec.CoverMap
}

// RunCase compiles and executes one case on one configuration at one
// optimization level through the engine's caches. It is the single-shot
// entry point behind clrun, cldiff, the reducer, the exhibits and the
// acceptance filters.
func (e *Engine) RunCase(cfg *device.Config, optimize bool, c Case, o LaunchOptions) UnitResult {
	e.cases.Add(1)
	fe := e.frontEnd(c.Src)
	return e.runUnit(cfg, optimize, fe, c.ND, func() (exec.Args, *exec.Buffer) { return c.Buffers() }, nil, o)
}

// FrontEnd returns the (memoized, when the engine has a front cache)
// parse of a kernel source — the stage campaign sinks use to inspect
// parameters before launching.
func (e *Engine) FrontEnd(src string) *device.FrontEnd {
	return e.frontEnd(src)
}

func (e *Engine) frontEnd(src string) *device.FrontEnd {
	if e.Front != nil {
		return e.Front.Get(src)
	}
	return device.ParseFrontEnd(src)
}

// runUnit is the memoized front end → result probe → back end → execute
// chain behind every campaign launch. The result key needs only the
// front end and the configuration, so a memory or disk hit skips sema,
// fold/optimize and lowering; a compile outcome (build failure or
// compile timeout) is a result like any other and is stored on a miss.
// A source that does not parse reports its build failure before any of
// that: it builds no buffers, probes nothing and stores nothing. share,
// when non-nil, is the record of executions of buffers' argument set.
func (e *Engine) runUnit(cfg *device.Config, optimize bool, fe *device.FrontEnd, nd exec.NDRange, buffers func() (exec.Args, *exec.Buffer), share *device.Share, o LaunchOptions) UnitResult {
	key := Key(cfg, optimize)
	if o.Ctx != nil && o.Ctx.Err() != nil {
		return UnitResult{Key: key, Outcome: device.Canceled, Msg: "launch canceled"}
	}
	if fe.Err != nil {
		cr := cfg.CompileFrontEnd(fe, optimize)
		return UnitResult{Key: key, Outcome: cr.Outcome, Msg: cr.Msg, Compile: true}
	}
	cover := o.Cover
	if cover == nil {
		cover = e.Cover
	}
	args, result := buffers()
	var rk resultKey
	cacheable := false
	if e.Results != nil && o.CheckRaces {
		e.skipRace.Add(1)
	}
	if e.Results != nil && !o.CheckRaces {
		rk, cacheable = resultKeyFor(fe, cfg, optimize, nd, args, result, cover != nil)
		if !cacheable {
			e.skipNonFlat.Add(1)
		}
		if cacheable {
			if r, delta, ok := e.Results.get(rk, fe.Canon); ok {
				r.Key = key
				if cover != nil {
					// Replay the memoized launch's coverage delta, so the
					// accumulated map does not depend on hit/miss patterns:
					// edge bits OR idempotently and site counts are added
					// exactly once per logical run.
					cover.AddEdges(delta.edges)
					cover.AddSites(delta.sites)
				}
				return r
			}
			if e.Results.coverMismatch(rk, fe.Canon) {
				e.skipCover.Add(1)
			}
		}
	}
	cr := cfg.CompileFrontEnd(fe, optimize)
	if cr.Outcome != device.OK {
		r := UnitResult{Key: key, Outcome: cr.Outcome, Msg: cr.Msg, Compile: true}
		if cacheable {
			e.Results.put(rk, fe.Canon, r, coverDelta{})
		}
		return r
	}
	// A covered launch collects into a private map first: the memoized
	// delta must be this launch's coverage alone, not whatever the shared
	// accumulator already held.
	var launchCov *exec.CoverMap
	if cover != nil {
		launchCov = new(exec.CoverMap)
	}
	rr := cr.Kernel.Run(nd, args, result, device.RunOptions{
		CheckRaces: o.CheckRaces,
		Ctx:        o.Ctx,
		Cover:      launchCov,
		Pool:       e.Pool,
		Share:      share,
	})
	if rr.Executed {
		e.launches.Add(1)
	}
	r := UnitResult{Key: key, Outcome: rr.Outcome, Msg: rr.Msg, Output: rr.Output}
	var delta coverDelta
	if launchCov != nil {
		delta = coverDelta{edges: launchCov.Edges(), sites: launchCov.SiteHits()}
		cover.AddEdges(delta.edges)
		cover.AddSites(delta.sites)
	}
	// A cancelled launch observed an arbitrary prefix of the work; its
	// result describes the cancellation, not the kernel, so it must never
	// be memoized.
	if cacheable && rr.Outcome != device.Canceled {
		e.Results.put(rk, fe.Canon, r, delta)
	}
	return r
}

// RunMatrix executes one case's unit matrix: units sharing a source text
// and a defect model run once (the representative), with the
// deterministic result copied to the followers; representatives may be
// served by the result cache, or by another model's execution of the
// same source index (device.Share). width is the number of matrices the
// caller itself runs concurrently (1 for a single differential test);
// representatives fan out over the cores the caller leaves idle, so the
// two levels never oversubscribe the machine. Results are returned in
// unit order.
func (e *Engine) RunMatrix(m Matrix, width int) []UnitResult {
	e.cases.Add(1)
	fes := make([]*device.FrontEnd, len(m.Sources))
	for i, src := range m.Sources {
		fes[i] = e.frontEnd(src)
	}
	type unitKey struct {
		src string
		mk  ModelKey
	}
	reps, follower := GroupUnits(len(m.Units), func(i int) unitKey {
		u := m.Units[i]
		return unitKey{m.Sources[u.Src], ModelKeyOf(u.Cfg, u.Opt)}
	})
	results := make([]UnitResult, len(m.Units))
	if width < 1 {
		width = 1
	}
	shares := make([]device.Share, len(m.Sources))
	repWorkers := stageWorkers(width, len(reps))
	// The representative stage itself always runs to completion — every
	// unit gets a result, so follower replication below stays total — but
	// each unit consults m.Ctx before (and during) its launch and reports
	// device.Canceled once the context fires.
	streamWith(nil, repWorkers, len(reps), func(ri int) struct{} {
		i := reps[ri]
		u := m.Units[i]
		src := u.Src
		results[i] = e.runUnit(u.Cfg, u.Opt, fes[src], m.ND,
			func() (exec.Args, *exec.Buffer) { return m.Buffers(src) },
			&shares[src],
			LaunchOptions{Ctx: m.Ctx})
		return struct{}{}
	}, func(int, struct{}) {})
	for i, r := range follower {
		cp := results[r]
		if cp.Output != nil {
			// Detach the follower's output so a future in-place mutation
			// of one result cannot corrupt its replicas.
			cp.Output = append([]uint64(nil), cp.Output...)
		}
		cp.Key = Key(m.Units[i].Cfg, m.Units[i].Opt)
		results[i] = cp
	}
	return results
}
