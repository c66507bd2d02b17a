package harness

import (
	"context"
	"fmt"
	"strings"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
)

// ModeStats tallies the Table 4 outcome counters for one (mode,
// configuration±) cell: wrong code, build failures, crashes, timeouts, and
// results not deemed wrong.
type ModeStats struct {
	W, BF, C, TO, OK int
}

// WrongPct is the paper's w% metric: the percentage of non-{bf,c,to}
// results that are wrong code results (§7.3).
func (s ModeStats) WrongPct() float64 {
	den := s.W + s.OK
	if den == 0 {
		return 0
	}
	return 100 * float64(s.W) / float64(den)
}

// Table4 holds the intensive CLsmith campaign results: per mode, per
// configuration-level key.
type Table4 struct {
	PerMode map[generator.Mode]map[string]*ModeStats
	Tests   map[generator.Mode]int
	Keys    []string
}

// AboveThresholdConfigs returns the configurations the paper subjected to
// intensive testing (Table 1 final column).
func AboveThresholdConfigs() []*device.Config {
	var out []*device.Config
	for _, c := range device.All() {
		if c.PaperAboveThreshold {
			out = append(out, c)
		}
	}
	return out
}

// t4Record is one kernel's shard record: its observations over the
// above-threshold configuration matrix.
type t4Record struct {
	Results []t1Result `json:"results"`
}

// table4Kernels regenerates the campaign's accepted kernel list, one
// slice per mode, deterministically from the campaign parameters. Every
// shard recomputes it (the acceptance filter is execution-backed and so
// must run everywhere), but the result cache makes the campaign proper
// reuse the acceptance runs.
func table4Kernels(eng *campaign.Engine, perMode int, seed int64, maxThreads int) [][]*generator.Kernel {
	out := make([][]*generator.Kernel, len(generator.Modes))
	for mi, mode := range generator.Modes {
		out[mi] = generateAccepted(eng, mode, perMode, seed+int64(mi)*1000003, maxThreads)
	}
	return out
}

// table4Record runs case i of §7.3 (mode-major over the accepted
// kernels): one kernel across the above-threshold configurations at both
// optimization levels.
func table4Record(ctx context.Context, eng *campaign.Engine, cfgs []*device.Config, kernels [][]*generator.Kernel, perMode int, i, width int) t4Record {
	mi, ki := i/perMode, i%perMode
	k := kernels[mi][ki]
	c := CaseFromKernel(k, fmt.Sprintf("%s-%d", generator.Modes[mi], ki))
	rs := eng.RunMatrix(matrixFor(ctx, cfgs, c), width)
	rec := t4Record{Results: make([]t1Result, len(rs))}
	for j, r := range rs {
		rec.Results[j] = t1Result{Key: r.Key, Outcome: int(r.Outcome), Output: r.Output}
	}
	return rec
}

// table4Failed synthesizes the record of a quarantined case: a crash on
// every (configuration, level) observation.
func table4Failed(cfgs []*device.Config) t4Record {
	return t4Record{Results: table1Failed(cfgs).Results}
}

// foldTable4 tallies the per-mode outcome cells from the per-kernel
// records (in case order), with majority-vote wrong-code classification.
func foldTable4(cfgs []*device.Config, perMode int, records []t4Record) *Table4 {
	t := &Table4{
		PerMode: map[generator.Mode]map[string]*ModeStats{},
		Tests:   map[generator.Mode]int{},
	}
	for _, cfg := range cfgs {
		t.Keys = append(t.Keys, Key(cfg, false), Key(cfg, true))
	}
	for mi, mode := range generator.Modes {
		cell := map[string]*ModeStats{}
		for _, k := range t.Keys {
			cell[k] = &ModeStats{}
		}
		for ki := 0; ki < perMode; ki++ {
			rec := records[mi*perMode+ki]
			t.Tests[mode]++
			results := make([]oracle.Result, len(rec.Results))
			for i, r := range rec.Results {
				results[i] = oracle.Result{Key: r.Key, Outcome: device.Outcome(r.Outcome), Output: r.Output}
			}
			wrong := map[string]bool{}
			for _, k := range oracle.WrongCode(results) {
				wrong[k] = true
			}
			for _, r := range results {
				st := cell[r.Key]
				if st == nil {
					continue
				}
				switch r.Outcome {
				case device.BuildFailure:
					st.BF++
				case device.Crash:
					st.C++
				case device.Timeout:
					st.TO++
				case device.OK:
					if wrong[r.Key] {
						st.W++
					} else {
						st.OK++
					}
				}
			}
		}
		t.PerMode[mode] = cell
	}
	return t
}

// RenderTable4 formats the campaign like the paper's Table 4.
func RenderTable4(t *Table4) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Configurations above the reliability threshold on CLsmith-generated tests\n")
	fmt.Fprintf(&b, "%-22s %-4s", "Mode (tests)", "")
	for _, k := range t.Keys {
		fmt.Fprintf(&b, "%8s", k)
	}
	b.WriteByte('\n')
	for _, mode := range generator.Modes {
		cell := t.PerMode[mode]
		rows := []struct {
			label string
			pick  func(*ModeStats) string
		}{
			{"w", func(s *ModeStats) string { return fmt.Sprintf("%d", s.W) }},
			{"bf", func(s *ModeStats) string { return fmt.Sprintf("%d", s.BF) }},
			{"c", func(s *ModeStats) string { return fmt.Sprintf("%d", s.C) }},
			{"to", func(s *ModeStats) string { return fmt.Sprintf("%d", s.TO) }},
			{"ok", func(s *ModeStats) string { return fmt.Sprintf("%d", s.OK) }},
			{"w%", func(s *ModeStats) string { return fmt.Sprintf("%.1f", s.WrongPct()) }},
		}
		for ri, row := range rows {
			if ri == 0 {
				fmt.Fprintf(&b, "%-22s %-4s", fmt.Sprintf("%s (%d)", mode, t.Tests[mode]), row.label)
			} else {
				fmt.Fprintf(&b, "%-22s %-4s", "", row.label)
			}
			for _, k := range t.Keys {
				fmt.Fprintf(&b, "%8s", row.pick(cell[k]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
