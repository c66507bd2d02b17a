package corpus

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
)

// StepRecord is one fuzzing step's deterministic, mergeable record: what
// ran, where it came from, and the coverage it contributed. The edge
// list holds only the bits novel to the chain at this step, so folding
// records in case order reconstructs the exact coverage-over-time curve
// (and the union across shards equals the direct run's map bit for bit).
type StepRecord struct {
	Chain    int      `json:"chain"`
	Step     int      `json:"step"`
	Origin   string   `json:"origin"`
	Parent   int      `json:"parent"` // corpus member mutated; -1 for fresh
	Features string   `json:"features"`
	SrcHash  uint64   `json:"src_hash"`
	Outcome  string   `json:"outcome"`
	Mismatch bool     `json:"mismatch,omitempty"` // differential wrong-code signal
	Gain     int      `json:"gain"`
	Corpus   int      `json:"corpus"` // corpus size after this step
	Edges    []uint32 `json:"edges,omitempty"`
	Sites    []uint64 `json:"sites,omitempty"` // defect-site hits this step
}

// ChainConfig parameterizes one fuzzing chain.
type ChainConfig struct {
	// Index labels the chain in records.
	Index int
	// Seed roots every pseudo-random choice of the chain (swarm subsets,
	// fresh-vs-mutate scheduling, mutation picks, generator seeds).
	Seed int64
	// Threads caps generated-kernel thread counts.
	Threads int
	// BaseFuel is the per-launch fuel budget (device.DefaultFuel if 0).
	BaseFuel int64
	// CorpusSize bounds the chain's corpus (default 64).
	CorpusSize int
	// FreshProb is the probability a step generates a fresh kernel even
	// with a non-empty corpus (default 0.3); an empty corpus always
	// generates fresh.
	FreshProb float64
	// Ref is the configuration coverage is defined on; every step runs it
	// with optimizations enabled and coverage collected, then with
	// optimizations disabled as the first differential observation.
	Ref *device.Config
	// Diff are additional configurations run (optimizations enabled) for
	// the differential wrong-code check on OK reference runs.
	Diff []*device.Config
}

// Chain is one independent fuzzing lane: a corpus, a coverage map, and a
// lazily computed, strictly ordered step sequence. Step(i) computes
// steps 0..i in order under the chain lock, so any concurrent access
// pattern — campaign.Stream fanning a shard's cases over workers, a
// shard that owns only part of the chain recomputing its prefix — yields
// the identical record stream.
type Chain struct {
	mu     sync.Mutex
	eng    *campaign.Engine
	cfg    ChainConfig
	cover  *exec.CoverMap
	corpus *Corpus
	recs   []StepRecord
}

// NewChain returns a chain running its launches through eng.
func NewChain(eng *campaign.Engine, cfg ChainConfig) *Chain {
	if cfg.CorpusSize <= 0 {
		cfg.CorpusSize = 64
	}
	if cfg.FreshProb <= 0 {
		cfg.FreshProb = 0.3
	}
	return &Chain{
		eng:    eng,
		cfg:    cfg,
		cover:  new(exec.CoverMap),
		corpus: New(cfg.CorpusSize),
	}
}

// Cover returns the chain's accumulated coverage map.
func (c *Chain) Cover() *exec.CoverMap { return c.cover }

// CorpusHash digests the chain's corpus state (see Corpus.Hash).
func (c *Chain) CorpusHash() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corpus.Hash()
}

// CorpusLen returns the chain's corpus size.
func (c *Chain) CorpusLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corpus.Len()
}

// Step returns the record of the given step, computing every earlier
// step of the chain first (in order, exactly once). A step run after ctx
// fires reports a cancel outcome and leaves the corpus and coverage
// untouched; the shard sink drops such poisoned records and a resume
// recomputes them cleanly.
func (c *Chain) Step(ctx context.Context, step int) StepRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.recs) <= step {
		c.recs = append(c.recs, c.stepLocked(ctx, len(c.recs)))
	}
	return c.recs[step]
}

// mix disperses (seed, step) into an rng seed (splitmix64 finalizer), so
// chains and steps draw from well-separated streams.
func mix(seed int64, step int) int64 {
	z := uint64(seed) + uint64(step)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func (c *Chain) stepLocked(ctx context.Context, step int) StepRecord {
	rng := rand.New(rand.NewSource(mix(c.cfg.Seed, step)))
	fs := SwarmSubset(c.cfg.Seed, step)
	rec := StepRecord{
		Chain:    c.cfg.Index,
		Step:     step,
		Origin:   OriginFresh,
		Parent:   -1,
		Features: FeatureTag(fs),
	}

	// Schedule: mutate a ranked corpus member preferentially; fall back
	// to (or interleave with) fresh swarm-random generation.
	var k *generator.Kernel
	if c.corpus.Len() > 0 && rng.Float64() >= c.cfg.FreshProb {
		m := c.corpus.Pick(rng)
		var donor *Member
		if c.corpus.Len() > 1 {
			donor = c.corpus.Pick(rng)
		}
		if origin, mk, err := Mutate(rng, m, donor); err == nil {
			k, rec.Origin, rec.Parent = mk, origin, m.ID
		}
	}
	if k == nil {
		emiBlocks := 0
		if rng.Intn(2) == 1 {
			emiBlocks = 1
		}
		k = generator.Generate(generator.Options{
			Mode:            generator.ModeAll,
			Seed:            rng.Int63(),
			Features:        &fs,
			EMIBlocks:       emiBlocks,
			MaxTotalThreads: c.cfg.Threads,
		})
	}
	rec.SrcHash = Fingerprint(k.Src)

	// Coverage launch: the reference configuration, optimizations on,
	// collecting into a private per-step map.
	stepCov := new(exec.CoverMap)
	cse := campaign.Case{
		Name:    fmt.Sprintf("chain%d-step%d", c.cfg.Index, step),
		Src:     k.Src,
		ND:      k.ND,
		Buffers: k.Buffers,
	}
	lo := campaign.LaunchOptions{BaseFuel: c.cfg.BaseFuel, Ctx: ctx}
	refLo := lo
	refLo.Cover = stepCov
	ref := c.eng.RunCase(c.cfg.Ref, true, cse, refLo)
	rec.Outcome = ref.Outcome.String()
	if ref.Outcome == device.Canceled {
		// Poisoned step: the launch observed an arbitrary prefix. Leave
		// chain state untouched; the record is dropped downstream.
		return rec
	}

	for _, e := range stepCov.Edges() {
		if !c.cover.Has(e) {
			rec.Edges = append(rec.Edges, e)
		}
	}
	rec.Gain = len(rec.Edges)
	c.cover.AddEdges(rec.Edges)
	sites := stepCov.SiteHits()
	c.cover.AddSites(sites)
	for _, s := range sites {
		if s != 0 {
			rec.Sites = sites[:]
			break
		}
	}

	c.corpus.Add(k, rec.Gain)
	rec.Corpus = c.corpus.Len()

	// Differential wrong-code check: reference with optimizations off,
	// plus the Diff configurations, all coverage-off. Outcome divergence
	// is expected across defect models (build failures, crashes); the
	// mismatch signal is two successful runs disagreeing on output.
	if ref.Outcome == device.OK {
		check := func(cfg *device.Config, opt bool) {
			r := c.eng.RunCase(cfg, opt, cse, lo)
			if r.Outcome == device.OK && !equalOutputs(r.Output, ref.Output) {
				rec.Mismatch = true
			}
		}
		check(c.cfg.Ref, false)
		for _, dc := range c.cfg.Diff {
			if dc != c.cfg.Ref {
				check(dc, true)
			}
		}
	}
	return rec
}

func equalOutputs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
