package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"clfuzz/internal/campaign"
	"clfuzz/internal/corpus"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
)

// FuzzTable is the Params.Table value of the coverage-guided fuzzing
// campaign (cltables -fuzz) — not a paper table, but it rides the same
// shard-record schema, so fleet runs merge coverage maps exactly like
// table results.
const FuzzTable = 6

// fuzzCampaign adapts the feedback loop to the shard driver: Chains
// independent fuzzing chains, Scale steps each, interleaved round-robin
// so case i is step i/Chains of chain i%Chains. A chain computes its
// steps strictly in order (lazily, under its lock), so any shard
// partition — including one that owns only part of a chain and
// recomputes the prefix — produces the identical record stream.
func fuzzCampaign(eng *campaign.Engine, p Params) *shardCampaign {
	nch := p.chainCount()
	cases := nch * p.Scale
	chains := sync.OnceValue(func() []*corpus.Chain { return FuzzChains(eng, p) })
	return &shardCampaign{
		cases: cases,
		run: func(ctx context.Context, i int) any {
			return chains()[i%nch].Step(ctx, i/nch)
		},
		failed: func() any {
			return corpus.StepRecord{Origin: corpus.OriginQuar, Parent: -1, Outcome: device.Crash.String()}
		},
		render: func(records []json.RawMessage) (string, error) {
			recs, err := decodeRecords[corpus.StepRecord](records)
			if err != nil {
				return "", err
			}
			return RenderFuzz(p, recs), nil
		},
	}
}

// FuzzChains builds the campaign's fuzzing chains from Params — the one
// place chain configuration is derived, so cltables -fuzz and the clfuzz
// loop binary fuzz identically for identical parameters.
func FuzzChains(eng *campaign.Engine, p Params) []*corpus.Chain {
	cfgs := AboveThresholdConfigs()
	out := make([]*corpus.Chain, p.chainCount())
	for ci := range out {
		cc := corpus.ChainConfig{
			Index:   ci,
			Seed:    p.Seed + int64(ci)*1000003,
			Threads: p.Threads,
			// Coverage is defined on the defect-free reference
			// interpreter, so a simulated compiler defect never
			// truncates a step's footprint. Crash outcomes on the
			// reference are mutants whose UB (e.g. an operator swap in
			// an array-index expression) the device model contains; CI
			// gates on quarantine records (a worker actually dying),
			// not on contained outcomes. The defective configurations
			// run as differential peers.
			Ref:  device.Reference(),
			Diff: fuzzDiffConfigs(cfgs),
		}
		if p.Fresh {
			// Pure-random baseline: a step never mutates (Float64() < 1
			// always), so the corpus is dead weight and coverage feedback
			// has no effect on generation.
			cc.FreshProb = 1
		}
		out[ci] = corpus.NewChain(eng, cc)
	}
	return out
}

// fuzzDiffConfigs picks a small deterministic differential set beyond
// the reference configuration: the second configuration and one from the
// middle of the list.
func fuzzDiffConfigs(cfgs []*device.Config) []*device.Config {
	var out []*device.Config
	if len(cfgs) > 1 {
		out = append(out, cfgs[1])
	}
	if len(cfgs) > 3 {
		out = append(out, cfgs[len(cfgs)/2])
	}
	return out
}

// fuzzFold is the aggregate state folded from a fuzz campaign's record
// stream: the merged coverage map (the union of every step's novel-edge
// delta — byte-identical whether the records came from one process or a
// merged fleet), corpus sizes, and outcome tallies.
type fuzzFold struct {
	Cover      *exec.CoverMap
	CorpusLen  map[int]int // chain → corpus size after its last step
	Origins    map[string]int
	Outcomes   map[string]int
	Mismatches int
	// Curve holds the cumulative distinct-edge count after each case, in
	// case order — the coverage-over-time series RenderFuzz prints.
	Curve []int
}

// foldFuzz folds step records (complete, in case order).
func foldFuzz(recs []corpus.StepRecord) *fuzzFold {
	f := &fuzzFold{
		Cover:     new(exec.CoverMap),
		CorpusLen: map[int]int{},
		Origins:   map[string]int{},
		Outcomes:  map[string]int{},
	}
	total := 0
	var sites [exec.CoverNumSites]uint64
	for _, r := range recs {
		total += f.Cover.AddEdges(r.Edges)
		for i, s := range r.Sites {
			if i < len(sites) {
				sites[i] += s
			}
		}
		f.CorpusLen[r.Chain] = r.Corpus
		f.Origins[r.Origin]++
		f.Outcomes[r.Outcome]++
		if r.Mismatch {
			f.Mismatches++
		}
		f.Curve = append(f.Curve, total)
	}
	f.Cover.AddSites(sites)
	return f
}

// CorpusTotal sums the per-chain corpus sizes.
func (f *fuzzFold) CorpusTotal() int {
	n := 0
	for _, c := range f.CorpusLen {
		n += c
	}
	return n
}

// RenderFuzz renders the fuzz campaign report: a coverage-over-time
// table plus origin/outcome/defect-site tallies. The output is a pure
// function of the record stream, so a merged fleet run renders byte-
// identically to the direct run.
func RenderFuzz(p Params, recs []corpus.StepRecord) string {
	f := foldFuzz(recs)
	var b strings.Builder
	mode := ""
	if p.Fresh {
		mode = ", pure-random baseline"
	}
	fmt.Fprintf(&b, "Coverage-guided fuzzing campaign (%d chains x %d steps, seed %d%s)\n",
		p.chainCount(), p.Scale, p.Seed, mode)
	fmt.Fprintf(&b, "%8s %8s %8s %10s\n", "cases", "edges", "corpus", "mismatches")
	every := len(recs) / 10
	if every < 1 {
		every = 1
	}
	corpusAt := map[int]int{}
	mismatches := 0
	for i, r := range recs {
		corpusAt[r.Chain] = r.Corpus
		if r.Mismatch {
			mismatches++
		}
		if (i+1)%every == 0 || i == len(recs)-1 {
			csum := 0
			for _, c := range corpusAt {
				csum += c
			}
			fmt.Fprintf(&b, "%8d %8d %8d %10d\n", i+1, f.Curve[i], csum, mismatches)
		}
	}
	fmt.Fprintf(&b, "origins:")
	names := make([]string, 0, len(f.Origins))
	for o := range f.Origins {
		names = append(names, o)
	}
	sort.Strings(names)
	for _, o := range names {
		fmt.Fprintf(&b, " %s=%d", o, f.Origins[o])
	}
	b.WriteString("\noutcomes:")
	for _, o := range []string{"ok", "bf", "c", "to", "cancel"} {
		if f.Outcomes[o] > 0 {
			fmt.Fprintf(&b, " %s=%d", o, f.Outcomes[o])
		}
	}
	sites := f.Cover.SiteHits()
	fmt.Fprintf(&b, "\ndefect sites: deref-store=%d arrow-store=%d dead-loop=%d\n",
		sites[exec.CoverSiteDerefStore], sites[exec.CoverSiteArrowStore], sites[exec.CoverSiteDeadLoop])
	fmt.Fprintf(&b, "distinct VM edges: %d, corpus members: %d, wrong-code mismatches: %d\n",
		f.Cover.Count(), f.CorpusTotal(), f.Mismatches)
	return b.String()
}
