package harness

import (
	"context"
	"encoding/json"
	"testing"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
)

func fuzzEngine() *campaign.Engine {
	return &campaign.Engine{Front: device.DefaultFrontCache, Results: campaign.NewResultCache(4096)}
}

var fuzzTestParams = Params{Table: FuzzTable, Scale: 4, Seed: 9, Threads: 32, Chains: 2}

// pinEngine compiles and runs the rest of the test on the tree engine
// (tree) or the VM whatever CLFUZZ_ENGINE selected for the process,
// restoring the selection afterwards.
func pinEngine(t testing.TB, tree bool) {
	saved := device.TreeEngine
	device.TreeEngine = tree
	t.Cleanup(func() { device.TreeEngine = saved })
}

// TestFuzzCampaignDeterminism: two independent runs of the fuzz campaign
// — fresh campaign engines, so no result-cache state crosses over —
// produce byte-identical record streams, corpus hashes and coverage
// maps. Run under -race (CI does) with the immutable-program assertion
// armed, this also pins the chain locking discipline while
// campaign.Stream fans the interleaved cases over workers. It runs on the
// VM under any CLFUZZ_ENGINE, since only the VM collects coverage.
func TestFuzzCampaignDeterminism(t *testing.T) {
	armImmutableAssert(t)
	pinEngine(t, false)
	ctx := context.Background()
	run := func() ([]byte, []uint64, [][]uint32) {
		eng := fuzzEngine()
		chains := FuzzChains(eng, fuzzTestParams)
		sf, err := runShard(ctx, eng, fuzzTestParams, 0, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// runShard built its own chains; replay the identical sequence on
		// this replica (the shared result cache makes it cheap) to expose
		// the corpus and coverage state the records came from.
		var hashes []uint64
		var edges [][]uint32
		for _, c := range chains {
			c.Step(ctx, fuzzTestParams.Scale-1)
			hashes = append(hashes, c.CorpusHash())
			edges = append(edges, c.Cover().Edges())
		}
		raw, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		return raw, hashes, edges
	}
	rawA, hashA, edgesA := run()
	rawB, hashB, edgesB := run()
	if string(rawA) != string(rawB) {
		t.Fatalf("record streams differ:\n%s\nvs\n%s", rawA, rawB)
	}
	for ci := range hashA {
		if hashA[ci] != hashB[ci] {
			t.Fatalf("chain %d corpus hash %#x vs %#x", ci, hashA[ci], hashB[ci])
		}
		if len(edgesA[ci]) != len(edgesB[ci]) {
			t.Fatalf("chain %d coverage %d vs %d edges", ci, len(edgesA[ci]), len(edgesB[ci]))
		}
		for i := range edgesA[ci] {
			if edgesA[ci][i] != edgesB[ci][i] {
				t.Fatalf("chain %d edge[%d] = %d vs %d", ci, i, edgesA[ci][i], edgesB[ci][i])
			}
		}
	}
	if len(edgesA) > 0 && len(edgesA[0]) == 0 {
		t.Fatal("VM campaign collected no coverage")
	}
}

// TestFuzzShardMergeMatchesDirect: the fuzz campaign sharded two ways
// and merged renders byte-identically to the direct single-process run —
// including the coverage map, which the render folds from the records'
// novel-edge deltas.
func TestFuzzShardMergeMatchesDirect(t *testing.T) {
	armImmutableAssert(t)
	ctx := context.Background()
	direct, err := renderCampaign(ctx, fuzzEngine(), fuzzTestParams)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ShardFile
	for shard := 0; shard < 2; shard++ {
		sf, err := runShard(ctx, fuzzEngine(), fuzzTestParams, shard, 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sf)
	}
	merged, err := mergeShards(fuzzEngine(), files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged != direct {
		t.Fatalf("merged shard output differs from direct run:\n--- direct ---\n%s--- merged ---\n%s", direct, merged)
	}
}

// TestFuzzTreeEngineFallback: the tree engine collects no coverage, so
// the feedback loop degrades to pure swarm-random generation — zero
// corpus growth, zero edges — but must complete without panicking, and
// deterministically.
func TestFuzzTreeEngineFallback(t *testing.T) {
	armImmutableAssert(t)
	pinEngine(t, true)
	ctx := context.Background()
	p := fuzzTestParams
	p.Scale = 2
	run := func() string {
		out, err := renderCampaign(ctx, fuzzEngine(), p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("tree-engine fuzz runs differ:\n%s\nvs\n%s", a, b)
	}
	eng := fuzzEngine()
	for _, c := range FuzzChains(eng, p) {
		c.Step(ctx, p.Scale-1)
		if c.Cover().Count() != 0 {
			t.Fatalf("tree engine collected %d edges", c.Cover().Count())
		}
		if c.CorpusLen() != 0 {
			t.Fatalf("tree engine grew the corpus to %d", c.CorpusLen())
		}
	}
}

// TestTableCoverageNeutrality: the paper-table campaigns render
// byte-identically with engine-wide coverage collection on or off — the
// Cover hook is observation-only — while the covered run does actually
// accumulate coverage. It runs on the VM under any CLFUZZ_ENGINE, since
// only the VM collects coverage.
func TestTableCoverageNeutrality(t *testing.T) {
	armImmutableAssert(t)
	pinEngine(t, false)
	ctx := context.Background()
	tables := []Params{
		{Table: 1, Scale: 1, Seed: 3, Threads: 32},
		{Table: 4, Scale: 1, Seed: 5, Threads: 32},
		{Table: 5, Scale: 1, Seed: 7, Threads: 32},
	}
	if testing.Short() {
		tables = tables[1:2]
	}
	for _, p := range tables {
		plain, err := renderCampaign(ctx, fuzzEngine(), p)
		if err != nil {
			t.Fatalf("table %d: %v", p.Table, err)
		}
		covEng := fuzzEngine()
		covEng.Cover = new(exec.CoverMap)
		covered, err := renderCampaign(ctx, covEng, p)
		if err != nil {
			t.Fatalf("table %d covered: %v", p.Table, err)
		}
		if plain != covered {
			t.Fatalf("table %d output changed under coverage:\n--- off ---\n%s--- on ---\n%s", p.Table, plain, covered)
		}
		if covEng.Cover.Count() == 0 {
			t.Fatalf("table %d covered run accumulated no edges", p.Table)
		}
	}
}
