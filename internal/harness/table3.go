package harness

import (
	"context"
	"fmt"
	"strings"

	"clfuzz/internal/ast"
	"clfuzz/internal/benchmarks"
	"clfuzz/internal/campaign"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/emi"
	"clfuzz/internal/exec"
	"clfuzz/internal/oracle"
	"clfuzz/internal/parser"
)

// Table3Outcome is the worst observed outcome for one (benchmark,
// configuration) cell, in the paper's decreasing severity order (§7.2).
type Table3Outcome int

// Outcomes in decreasing severity.
const (
	T3OK    Table3Outcome = iota // all tests ran with no mismatch
	T3NG                         // generation with an empty EMI block failed
	T3TO                         // at least one variant timed out
	T3Crash                      // at least one variant crashed
	T3Wrong                      // at least one variant produced a wrong result
)

// Table3Cell is one cell of Table 3: the worst outcome plus the §7.2
// substitution annotation (e: substitutions had to be enabled, d: had to
// be disabled, ?: observed both ways).
type Table3Cell struct {
	Outcome Table3Outcome
	SubsOn  bool // provoked with substitutions enabled
	SubsOff bool // provoked with substitutions disabled
}

// Label renders the cell in the paper's notation.
func (c Table3Cell) Label() string {
	var base string
	switch c.Outcome {
	case T3OK:
		return "ok"
	case T3NG:
		return "ng"
	case T3TO:
		return "to"
	case T3Crash:
		base = "c"
	case T3Wrong:
		base = "w"
	}
	switch {
	case c.SubsOn && c.SubsOff:
		return base + "?"
	case c.SubsOn:
		return base + "e"
	case c.SubsOff:
		return base + "d"
	}
	return base
}

// Table3 holds the EMI-over-benchmarks campaign results.
type Table3 struct {
	Benchmarks []string
	Keys       []string // configuration ids (levels are combined per the paper)
	Cells      map[string]map[string]Table3Cell
	// RacyExcluded lists the benchmarks excluded because the race checker
	// flagged them (spmv and myocyte, §2.4).
	RacyExcluded []string
}

// table3Configs returns the configurations under EMI benchmark test: the
// Altera configurations are excluded, as in the paper (offline
// compilation did not integrate with the benchmark harness, §7.2).
func table3Configs() []*device.Config {
	var out []*device.Config
	for _, c := range device.All() {
		if c.ID != 20 && c.ID != 21 {
			out = append(out, c)
		}
	}
	return out
}

// t3Record is one benchmark's shard record: its computed row of Table 3
// cells, keyed by configuration name.
type t3Record struct {
	Cells map[string]Table3Cell `json:"cells"`
	// Skipped marks a benchmark whose reference run failed (the row is
	// left empty; tests assert this cannot happen).
	Skipped bool `json:"skipped,omitempty"`
}

// benchBuffers builds the argument factory for one benchmark source: the
// benchmark's own inputs, plus the §5 host-side protocol — dead[j] = j
// keeps every EMI block dead — when the (possibly injected) kernel
// declares a dead array.
func benchBuffers(eng *campaign.Engine, bench *benchmarks.Benchmark, src string) func() (exec.Args, *exec.Buffer) {
	hasDead := false
	if fe := eng.FrontEnd(src); fe.Err == nil && fe.Prog.Kernel() != nil {
		for _, p := range fe.Prog.Kernel().Params {
			if p.Name == "dead" {
				hasDead = true
			}
		}
	}
	return func() (exec.Args, *exec.Buffer) {
		args, result := bench.MakeArgs()
		if hasDead {
			dead := exec.NewBuffer(cltypes.TInt, 16)
			for i := 0; i < 16; i++ {
				dead.SetScalar(i, uint64(i))
			}
			args["dead"] = exec.Arg{Buf: dead}
		}
		return args, result
	}
}

// table3Record runs one benchmark's full EMI campaign — reference
// expected output, empty-block "ng" checks, and the injected variant
// matrix — and folds its row of cells.
func table3Record(ctx context.Context, eng *campaign.Engine, testCfgs []*device.Config, bench *benchmarks.Benchmark, variantsPerBench int, seed int64, baseFuel int64, width int) t3Record {
	ref := device.Reference()
	// Build the variant set once: per seed, substitutions on/off, with
	// a pruning applied to half of them. Each variant source is shared
	// by every (configuration, level) pair, so parse each one once.
	type variantMeta struct {
		src    string
		subsOn bool
	}
	var variants []variantMeta
	for v := 0; v < variantsPerBench; v++ {
		for _, subs := range []bool{false, true} {
			src, err := injectedVariant(bench.Src, seed+int64(v)*31, subs, v%2 == 1)
			if err != nil {
				continue
			}
			variants = append(variants, variantMeta{src: src, subsOn: subs})
		}
	}
	// One matrix carries the whole benchmark: the variant units, the
	// empty-block units behind the "ng" determination, and the reference
	// expectation run. Sources index: variants, then the unmodified
	// benchmark.
	benchSrc := len(variants)
	sources := make([]string, 0, len(variants)+1)
	buffers := make([]func() (exec.Args, *exec.Buffer), 0, len(variants)+1)
	for _, v := range variants {
		sources = append(sources, v.src)
		buffers = append(buffers, benchBuffers(eng, bench, v.src))
	}
	sources = append(sources, bench.Src)
	buffers = append(buffers, benchBuffers(eng, bench, bench.Src))
	var units []campaign.Unit
	for _, cfg := range testCfgs {
		for _, opt := range []bool{false, true} {
			for vi := range variants {
				units = append(units, campaign.Unit{Src: vi, Cfg: cfg, Opt: opt})
			}
		}
	}
	ngStart := len(units)
	for _, cfg := range testCfgs {
		for _, opt := range []bool{false, true} {
			units = append(units, campaign.Unit{Src: benchSrc, Cfg: cfg, Opt: opt})
		}
	}
	refUnit := len(units)
	units = append(units, campaign.Unit{Src: benchSrc, Cfg: ref, Opt: true})
	results := eng.RunMatrix(campaign.Matrix{
		Name:     bench.Name,
		Sources:  sources,
		ND:       bench.ND,
		Buffers:  func(src int) (exec.Args, *exec.Buffer) { return buffers[src]() },
		BaseFuel: baseFuel,
		Units:    units,
		Ctx:      ctx,
	}, width)
	rec := t3Record{Cells: map[string]Table3Cell{}}
	// Reference expected output (empty EMI block == original kernel). A
	// reference failure would be a harness bug; tests assert it.
	if results[refUnit].Outcome != device.OK {
		rec.Skipped = true
		return rec
	}
	expected := results[refUnit].Output
	// Per configuration: first determine ng (empty block on that config
	// disagrees with the expected output), then fold variant outcomes.
	ngIdx := ngStart
	vi := 0
	for _, cfg := range testCfgs {
		ng := false
		for range []bool{false, true} {
			out := results[ngIdx]
			ngIdx++
			if out.Outcome != device.OK || !oracle.Equal(out.Output, expected) {
				ng = true
			}
		}
		cell := Table3Cell{Outcome: T3OK}
		if ng {
			cell.Outcome = T3NG
		}
		raise := func(o Table3Outcome, subsOn bool) {
			if o > cell.Outcome {
				cell.Outcome = o
				cell.SubsOn, cell.SubsOff = false, false
			}
			if o == cell.Outcome && (o == T3Crash || o == T3Wrong) {
				if subsOn {
					cell.SubsOn = true
				} else {
					cell.SubsOff = true
				}
			}
		}
		for lv := 0; lv < 2; lv++ {
			for range variants {
				u := units[vi]
				r := results[vi]
				vi++
				subsOn := variants[u.Src].subsOn
				switch {
				case r.Outcome == device.Timeout:
					raise(T3TO, subsOn)
				case r.Outcome == device.Crash || r.Outcome == device.BuildFailure:
					// The paper folds build failures into "crash": online
					// compilation makes them indistinguishable without
					// extra per-benchmark work (§7.2 footnote 6).
					raise(T3Crash, subsOn)
				case r.Outcome == device.OK && !oracle.Equal(r.Output, expected):
					raise(T3Wrong, subsOn)
				}
			}
		}
		rec.Cells[cfg.Name()] = cell
	}
	return rec
}

// table3Failed synthesizes a benchmark row whose worker shard was
// quarantined: every configuration cell reports a crash.
func table3Failed(testCfgs []*device.Config) t3Record {
	rec := t3Record{Cells: map[string]Table3Cell{}}
	for _, cfg := range testCfgs {
		rec.Cells[cfg.Name()] = Table3Cell{Outcome: T3Crash}
	}
	return rec
}

// foldTable3 assembles the table from the per-benchmark records (in
// benchmark order).
func foldTable3(records []t3Record) *Table3 {
	t := &Table3{Cells: map[string]map[string]Table3Cell{}}
	for _, b := range benchmarks.Racy() {
		t.RacyExcluded = append(t.RacyExcluded, b.Name)
	}
	for _, cfg := range table3Configs() {
		t.Keys = append(t.Keys, cfg.Name())
	}
	for i, bench := range benchmarks.Clean() {
		t.Benchmarks = append(t.Benchmarks, bench.Name)
		if i < len(records) && !records[i].Skipped {
			t.Cells[bench.Name] = records[i].Cells
		}
	}
	return t
}

// EMIBenchmarkCampaign reproduces §7.2: for each race-free benchmark and
// each configuration, derive EMI-injected variants (substitutions on and
// off, both optimization levels, several injection seeds and prunings),
// compare each against the configuration's own empty-EMI-block output, and
// record the worst outcome. The expected output comes from the reference
// interpreter; a configuration that cannot reproduce it with an empty EMI
// block scores "ng".
func EMIBenchmarkCampaign(variantsPerBench int, seed int64, baseFuel int64) *Table3 {
	return emiBenchmarkCampaign(campaign.Default, variantsPerBench, seed, baseFuel)
}

func emiBenchmarkCampaign(eng *campaign.Engine, variantsPerBench int, seed int64, baseFuel int64) *Table3 {
	testCfgs := table3Configs()
	clean := benchmarks.Clean()
	records := make([]t3Record, len(clean))
	campaign.Stream(nil, len(clean), func(i int) t3Record {
		return table3Record(nil, eng, testCfgs, clean[i], variantsPerBench, seed, baseFuel, len(clean))
	}, func(i int, r t3Record) { records[i] = r })
	return foldTable3(records)
}

// injectedVariant parses the benchmark source, injects EMI blocks
// (optionally with substitutions), optionally prunes them, and prints the
// result.
func injectedVariant(src string, seed int64, substitute, prune bool) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	if _, err := emi.Inject(prog, emi.InjectOptions{
		Seed: seed, Blocks: 1 + int(seed%2), Substitute: substitute,
	}); err != nil {
		return "", err
	}
	if prune {
		pruned, err := emi.Prune(prog, emi.PruneOpts{PLeaf: 0.3, PCompound: 0.3, PLift: 0.3, Seed: seed})
		if err != nil {
			return "", err
		}
		prog = pruned
	}
	return ast.Print(prog), nil
}

// RenderTable3 formats the campaign like the paper's Table 3.
func RenderTable3(t *Table3) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. EMI testing over the Parboil and Rodinia ports (excluded for data races: %s)\n",
		strings.Join(t.RacyExcluded, ", "))
	fmt.Fprintf(&b, "%-12s", "Benchmark")
	for _, k := range t.Keys {
		fmt.Fprintf(&b, "%5s", k)
	}
	b.WriteByte('\n')
	for _, bench := range t.Benchmarks {
		fmt.Fprintf(&b, "%-12s", bench)
		for _, k := range t.Keys {
			fmt.Fprintf(&b, "%5s", t.Cells[bench][k].Label())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
