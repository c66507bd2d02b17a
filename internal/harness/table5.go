package harness

import (
	"context"
	"fmt"
	"strings"

	"clfuzz/internal/ast"
	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/emi"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
	"clfuzz/internal/parser"
)

// Table5Stats tallies the CLsmith+EMI campaign counters for one
// configuration-level key (§7.4): bad bases (no variant terminates with a
// value), bases inducing wrong code (two variants disagree), bases
// inducing build failures / crashes / timeouts, and stable bases (all
// variants terminate with one uniform value).
type Table5Stats struct {
	BaseFails, W, BF, C, TO, Stable int
}

// Table5 holds the CLsmith+EMI campaign results.
type Table5 struct {
	PerKey map[string]*Table5Stats
	Keys   []string
	Bases  int
	// PruningDefects counts, per pruning-option index in emi.Grid(), the
	// (base, key) pairs where that variant deviated — the §7.4 strategy
	// comparison data (BenchmarkPruningStrategies).
	PruningDefects []int
}

// t5Record is one base's shard record: its per-key contribution to the
// Table 5 counters (0/1 flags) plus the per-grid-index defect counts.
type t5Record struct {
	PerKey  map[string]Table5Stats `json:"per_key"`
	Pruning []int                  `json:"pruning"`
}

// table5Record derives base i's 40-variant pruning grid (§7.4), runs every
// (variant, configuration, level) unit through the campaign engine —
// units sharing a printed source and a defect model execute once, and
// text shared with other bases or the acceptance runs hits the result
// cache — and classifies the base.
func table5Record(ctx context.Context, eng *campaign.Engine, cfgs []*device.Config, keys []string, base *generator.Kernel, width int) t5Record {
	grid := emi.Grid()
	rec := t5Record{PerKey: map[string]Table5Stats{}, Pruning: make([]int, len(grid))}
	prog, err := parser.Parse(base.Src)
	if err != nil {
		return rec // cannot happen for generated kernels
	}
	// The variant sources are shared across configurations: parse each
	// one exactly once and fan the front end out to every
	// (configuration, level) unit. A failed pruning leaves the empty
	// source, whose front end reports a parse error that every
	// configuration counts as a build failure — the behaviour of the
	// pre-cache harness.
	variants := make([]string, len(grid))
	for gi, po := range grid {
		po.Seed = base.Seed*41 + int64(gi)
		if vp, err := emi.Prune(prog, po); err == nil {
			variants[gi] = ast.Print(vp)
		}
	}
	var units []campaign.Unit
	for gi := range variants {
		for _, cfg := range cfgs {
			units = append(units,
				campaign.Unit{Src: gi, Cfg: cfg, Opt: false},
				campaign.Unit{Src: gi, Cfg: cfg, Opt: true})
		}
	}
	results := eng.RunMatrix(campaign.Matrix{
		Name:    fmt.Sprintf("emi-base-%d", base.Seed),
		Sources: variants,
		ND:      base.ND,
		Buffers: func(int) (exec.Args, *exec.Buffer) { return base.Buffers() },
		Units:   units,
		Ctx:     ctx,
	}, width)
	// Classify per configuration-level.
	perKey := map[string][]campaign.UnitResult{}
	perKeyGrid := map[string][]int{}
	for i, u := range units {
		k := Key(u.Cfg, u.Opt)
		perKey[k] = append(perKey[k], results[i])
		perKeyGrid[k] = append(perKeyGrid[k], u.Src)
	}
	for _, k := range keys {
		vs := perKey[k]
		var st Table5Stats
		var first []uint64
		haveOK, wrong, bf, crash, to := false, false, false, false, false
		for _, v := range vs {
			switch v.Outcome {
			case device.OK:
				if !haveOK {
					first, haveOK = v.Output, true
				} else if !oracle.Equal(first, v.Output) {
					wrong = true
				}
			case device.BuildFailure:
				bf = true
			case device.Crash:
				crash = true
			case device.Timeout:
				to = true
			}
		}
		if !haveOK {
			st.BaseFails++
			rec.PerKey[k] = st
			continue
		}
		if wrong {
			st.W++
			// Strategy attribution: count the grid combinations whose
			// variant deviated from the majority observed output.
			majority := majorityOutput(vs)
			for i, v := range vs {
				if v.Outcome == device.OK && !oracle.Equal(majority, v.Output) {
					rec.Pruning[perKeyGrid[k][i]]++
				}
			}
		}
		if bf {
			st.BF++
		}
		if crash {
			st.C++
		}
		if to {
			st.TO++
		}
		if haveOK && !wrong && !bf && !crash && !to {
			st.Stable++
		}
		rec.PerKey[k] = st
	}
	return rec
}

// foldTable5 sums the per-base records (in base order) into the table.
func foldTable5(keys []string, bases int, records []t5Record) *Table5 {
	grid := emi.Grid()
	t := &Table5{PerKey: map[string]*Table5Stats{}, Keys: keys, Bases: bases, PruningDefects: make([]int, len(grid))}
	for _, k := range keys {
		t.PerKey[k] = &Table5Stats{}
	}
	for _, rec := range records {
		for _, k := range keys {
			st, ok := rec.PerKey[k]
			if !ok {
				continue
			}
			agg := t.PerKey[k]
			agg.BaseFails += st.BaseFails
			agg.W += st.W
			agg.BF += st.BF
			agg.C += st.C
			agg.TO += st.TO
			agg.Stable += st.Stable
		}
		for gi, n := range rec.Pruning {
			if gi < len(t.PruningDefects) {
				t.PruningDefects[gi] += n
			}
		}
	}
	return t
}

func table5Keys(cfgs []*device.Config) []string {
	var keys []string
	for _, cfg := range cfgs {
		keys = append(keys, Key(cfg, false), Key(cfg, true))
	}
	return keys
}

func majorityOutput(vs []campaign.UnitResult) []uint64 {
	best := []uint64(nil)
	bestN := 0
	for i, v := range vs {
		if v.Outcome != device.OK {
			continue
		}
		n := 0
		for _, w := range vs {
			if w.Outcome == device.OK && oracle.Equal(v.Output, w.Output) {
				n++
			}
		}
		if n > bestN {
			best, bestN = vs[i].Output, n
		}
	}
	return best
}

// generateEMIBases produces base kernels per the §7.4 protocol: ALL mode
// with 1-5 EMI blocks, accepted on config 1+, and kept only if inverting
// the dead array changes the result (otherwise every EMI block was placed
// at an already-dead point). The straight acceptance run goes through the
// campaign engine, so the campaign's unpruned variants reuse it via the
// result cache.
func generateEMIBases(eng *campaign.Engine, n int, seed int64, maxThreads int) []*generator.Kernel {
	gen1 := device.ByID(1)
	return firstAccepted(n, seed, func(s int64) *generator.Kernel {
		return generator.Generate(generator.Options{
			Mode: generator.ModeAll, Seed: s, MaxTotalThreads: maxThreads,
			EMIBlocks: 1 + int(s%5),
		})
	}, func(k *generator.Kernel) bool {
		rr := eng.RunCase(gen1, true, CaseFromKernel(k, ""), campaign.LaunchOptions{})
		if rr.Outcome != device.OK {
			return false
		}
		ir := eng.RunCase(gen1, true, Case{Src: k.Src, ND: k.ND, Buffers: k.InvertedDeadBuffers}, campaign.LaunchOptions{})
		if ir.Outcome != device.OK {
			// Inversion makes the blocks live; divergence in outcome
			// still proves the blocks are reachable when live.
			return true
		}
		return !oracle.Equal(rr.Output, ir.Output)
	})
}

// RenderTable5 formats the campaign like the paper's Table 5.
func RenderTable5(t *Table5) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. CLsmith+EMI results (%d base programs, %d variants each)\n",
		t.Bases, len(emi.Grid()))
	fmt.Fprintf(&b, "%-12s", "")
	for _, k := range t.Keys {
		fmt.Fprintf(&b, "%7s", k)
	}
	b.WriteByte('\n')
	rows := []struct {
		label string
		pick  func(*Table5Stats) int
	}{
		{"base fails", func(s *Table5Stats) int { return s.BaseFails }},
		{"w", func(s *Table5Stats) int { return s.W }},
		{"bf", func(s *Table5Stats) int { return s.BF }},
		{"c", func(s *Table5Stats) int { return s.C }},
		{"to", func(s *Table5Stats) int { return s.TO }},
		{"stable", func(s *Table5Stats) int { return s.Stable }},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s", row.label)
		for _, k := range t.Keys {
			fmt.Fprintf(&b, "%7d", row.pick(t.PerKey[k]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderPruningComparison formats the §7.4 strategy-effectiveness data:
// defect-inducing variant counts aggregated by each pruning probability.
func RenderPruningComparison(t *Table5) string {
	grid := emi.Grid()
	var b strings.Builder
	b.WriteString("EMI pruning strategy comparison (defect-inducing variants by strategy weight)\n")
	sum := func(sel func(emi.PruneOpts) float64) float64 {
		total, weight := 0.0, 0.0
		for i, po := range grid {
			total += sel(po) * float64(t.PruningDefects[i])
			weight += sel(po)
		}
		if weight == 0 {
			return 0
		}
		return total / weight
	}
	fmt.Fprintf(&b, "%-10s %10.2f\n", "leaf", sum(func(p emi.PruneOpts) float64 { return p.PLeaf }))
	fmt.Fprintf(&b, "%-10s %10.2f\n", "compound", sum(func(p emi.PruneOpts) float64 { return p.PCompound }))
	fmt.Fprintf(&b, "%-10s %10.2f\n", "lift", sum(func(p emi.PruneOpts) float64 { return p.PLift }))
	return b.String()
}
