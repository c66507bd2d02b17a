package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/store"
)

// shardParams are deliberately tiny: the property under test is byte
// identity, not campaign statistics. CI runs this file under -race in
// both engine jobs (the default VM job and the CLFUZZ_ENGINE=tree job),
// so the shard/merge and result-cache invariants are pinned on both
// evaluation engines.
var shardParams = []Params{
	{Table: 4, Scale: 2, Seed: 99, Threads: 24},
	{Table: 5, Scale: 2, Seed: 99, Threads: 24},
}

// freshEngine returns an isolated campaign engine; withResults arms the
// cross-base result cache (the uncached reference runs without it).
func freshEngine(withResults bool) *campaign.Engine {
	eng := &campaign.Engine{Front: device.NewFrontCache(1024)}
	if withResults {
		eng.Results = campaign.NewResultCache(8192)
	}
	return eng
}

// TestShardMergeDeterminism is the campaign substrate's central
// invariant: for the Table 4 and Table 5 campaigns, (a) the cross-base
// result cache is invisible — a cached run renders byte-identical to the
// cache-free reference, and a second, fully memoized run renders the
// same bytes again — and (b) sharding is invisible — 2- and 3-shard runs
// merge byte-identical to the unsharded output. Run under -race (CI
// does) with the executor's immutable-program assertion armed.
func TestShardMergeDeterminism(t *testing.T) {
	armImmutableAssert(t)
	for _, p := range shardParams {
		ref, err := renderCampaign(nil, freshEngine(false), p)
		if err != nil {
			t.Fatalf("table %d reference: %v", p.Table, err)
		}
		cached := freshEngine(true)
		got, err := renderCampaign(nil, cached, p)
		if err != nil {
			t.Fatalf("table %d cached: %v", p.Table, err)
		}
		if got != ref {
			t.Fatalf("table %d: result-cached output differs from the uncached reference:\n%s\n--- vs ---\n%s", p.Table, got, ref)
		}
		again, err := renderCampaign(nil, cached, p)
		if err != nil {
			t.Fatalf("table %d rerun: %v", p.Table, err)
		}
		if again != ref {
			t.Fatalf("table %d: fully memoized rerun differs from the reference", p.Table)
		}
		// The rerun must be served by the cross-campaign memo (Table 4
		// additionally hits within one campaign: the acceptance filter's
		// launches are reused by the matrix).
		if hits, _, _ := cached.Results.Stats(); hits == 0 {
			t.Errorf("table %d: campaigns never hit the result cache", p.Table)
		}
		for _, shards := range []int{2, 3} {
			files := make([]*ShardFile, shards)
			for s := 0; s < shards; s++ {
				// Each shard gets its own engine: shards run in separate
				// processes in production, so nothing may leak between
				// them for the merge to be byte-identical.
				sf, err := runShard(nil, freshEngine(true), p, s, shards, nil, nil)
				if err != nil {
					t.Fatalf("table %d shard %d/%d: %v", p.Table, s, shards, err)
				}
				files[s] = sf
			}
			merged, err := mergeShards(freshEngine(true), files, nil)
			if err != nil {
				t.Fatalf("table %d merge %d: %v", p.Table, shards, err)
			}
			if merged != ref {
				t.Fatalf("table %d: %d-shard merge differs from the unsharded run:\n%s\n--- vs ---\n%s", p.Table, shards, merged, ref)
			}
		}
	}
}

// TestThreadedDispatchCampaignDeterminism pins the dispatch contract at
// campaign scale: how a campaign's work is dispatched onto threads is
// observation-free. With GOMAXPROCS at 1 every stage runs one case at a
// time; with GOMAXPROCS at 4 cases and a matrix's representatives fan
// out across worker goroutines. A Table 5 campaign — and its 2-shard
// merge — must render byte-identical either way. The host's core count
// is not part of the result-cache key, so any divergence would also
// poison the cache; byte identity here pins both properties at once.
func TestThreadedDispatchCampaignDeterminism(t *testing.T) {
	armImmutableAssert(t)
	p := Params{Table: 5, Scale: 2, Seed: 99, Threads: 24}
	saved := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(saved) })
	ref, err := renderCampaign(nil, freshEngine(false), p)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	runtime.GOMAXPROCS(4)
	got, err := renderCampaign(nil, freshEngine(true), p)
	if err != nil {
		t.Fatalf("threaded run: %v", err)
	}
	if got != ref {
		t.Fatalf("threaded campaign differs from the serial reference:\n%s\n--- vs ---\n%s", got, ref)
	}
	files := make([]*ShardFile, 2)
	for s := range files {
		sf, err := runShard(nil, freshEngine(true), p, s, 2, nil, nil)
		if err != nil {
			t.Fatalf("shard %d/2: %v", s, err)
		}
		files[s] = sf
	}
	merged, err := mergeShards(freshEngine(true), files, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged != ref {
		t.Fatalf("threaded 2-shard merge differs from the serial reference:\n%s\n--- vs ---\n%s", merged, ref)
	}
}

// TestParseShard: a -shard value parses only when it prints back as
// itself and names one of its n slices.
func TestParseShard(t *testing.T) {
	for _, c := range []struct {
		in        string
		shard, of int
		ok        bool
	}{
		{"1/3", 1, 3, true},
		{"0/0", 0, 0, false},     // no slices
		{"2/2", 0, 0, false},     // past the last slice
		{"-1/2", 0, 0, false},    // negative index
		{"1", 0, 0, false},       // no slash
		{"0/2junk", 0, 0, false}, // trailing text
		{"1/2/7", 0, 0, false},   // three fields
	} {
		shard, of, err := ParseShard(c.in)
		if (err == nil) != c.ok || shard != c.shard || of != c.of {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", c.in, shard, of, err, c.shard, c.of, c.ok)
		}
	}
}

// TestShardMergeRejectsBadSets: incomplete, duplicated or mismatched
// shard sets must be refused — with errors precise enough to name the
// offending file and case — not silently merged.
func TestShardMergeRejectsBadSets(t *testing.T) {
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16}
	eng := freshEngine(true)
	s0, err := runShard(nil, eng, p, 0, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := runShard(nil, eng, p, 1, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runShard(nil, eng, p, 2, 2, nil, nil); err == nil {
		t.Error("runShard accepted an out-of-range shard index")
	}
	clone := func(sf *ShardFile) *ShardFile {
		cp := *sf
		cp.Records = append([]ShardRecord(nil), sf.Records...)
		return &cp
	}
	tests := []struct {
		name    string
		files   func() []*ShardFile
		labels  []string
		wantErr []string // substrings the error must carry
	}{
		{
			name:    "incomplete set",
			files:   func() []*ShardFile { return []*ShardFile{s0} },
			wantErr: []string{"missing cases"},
		},
		{
			name:    "duplicated shard",
			files:   func() []*ShardFile { return []*ShardFile{s0, s0, s1} },
			labels:  []string{"a.json", "b.json", "c.json"},
			wantErr: []string{"appears in both", "a.json", "b.json"},
		},
		{
			name: "duplicate index across shards",
			files: func() []*ShardFile {
				bad := clone(s1)
				bad.Records[0].Index = s0.Records[0].Index
				return []*ShardFile{s0, bad}
			},
			labels:  []string{"good.json", "bad.json"},
			wantErr: []string{"appears in both", "good.json", "bad.json"},
		},
		{
			name: "mismatched parameters",
			files: func() []*ShardFile {
				other := clone(s1)
				other.Seed = 8
				return []*ShardFile{s0, other}
			},
			wantErr: []string{"parameters disagree"},
		},
		{
			name: "mismatched schema",
			files: func() []*ShardFile {
				other := clone(s0)
				other.Schema = "clfuzz-shard/v0"
				return []*ShardFile{other, s1}
			},
			labels:  []string{"old.json", "new.json"},
			wantErr: []string{"old.json", "unknown shard schema"},
		},
		{
			name: "index out of range",
			files: func() []*ShardFile {
				bad := clone(s0)
				bad.Records[0].Index = bad.Cases + 5
				return []*ShardFile{bad, s1}
			},
			labels:  []string{"oob.json", "ok.json"},
			wantErr: []string{"oob.json", "out of range"},
		},
		{
			// What `cltables -fuel v2 -shard` wrote before fuel/v2 was
			// deleted: every file of the set carries the record.
			name: "retired fuel model",
			files: func() []*ShardFile {
				v0, v1 := clone(s0), clone(s1)
				v0.Fuel, v1.Fuel = "v2", "v2"
				return []*ShardFile{v0, v1}
			},
			labels:  []string{"v2-0.json", "v2-1.json"},
			wantErr: []string{"v2-0.json", `fuel model "v2"`},
		},
	}
	for _, tt := range tests {
		_, err := mergeShards(eng, tt.files(), tt.labels)
		if err == nil {
			t.Errorf("%s: merge accepted the bad set", tt.name)
			continue
		}
		for _, want := range tt.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tt.name, err, want)
			}
		}
	}
}

// TestValidateShardFile: per-file validation catches corruption a merge
// would otherwise report confusingly (or not at all), naming the file.
func TestValidateShardFile(t *testing.T) {
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16}
	eng := freshEngine(true)
	good, err := runShard(nil, eng, p, 0, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateShardFile(good, "good.json"); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	mutate := func(fn func(sf *ShardFile)) *ShardFile {
		cp := *good
		cp.Records = append([]ShardRecord(nil), good.Records...)
		fn(&cp)
		return &cp
	}
	tests := []struct {
		name    string
		sf      *ShardFile
		wantErr string
	}{
		{"bad schema", mutate(func(sf *ShardFile) { sf.Schema = "nope" }), "unknown shard schema"},
		{"bad slice", mutate(func(sf *ShardFile) { sf.Shard = 2 }), "bad shard"},
		{"index out of range", mutate(func(sf *ShardFile) { sf.Records[0].Index = sf.Cases }), "out of range"},
		{"wrong slot", mutate(func(sf *ShardFile) { sf.Records[0].Index = 1 }), "does not belong to shard"},
		{"duplicate case", mutate(func(sf *ShardFile) { sf.Records[1].Index = sf.Records[0].Index }), "appears twice"},
		{"truncated payload", mutate(func(sf *ShardFile) { sf.Records[0].Data = json.RawMessage(`{"resul`) }), "truncated or corrupt payload"},
		{"empty payload", mutate(func(sf *ShardFile) { sf.Records[0].Data = nil }), "truncated or corrupt payload"},
	}
	for _, tt := range tests {
		err := ValidateShardFile(tt.sf, "f.json")
		if err == nil {
			t.Errorf("%s: accepted", tt.name)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.wantErr)
		}
		if !strings.Contains(err.Error(), "f.json") {
			t.Errorf("%s: error %q does not name the file", tt.name, err)
		}
	}
}

// TestLoadShardFile: on-disk corruption (a worker killed mid-write
// without the atomic rename) is reported precisely, naming the file.
func TestLoadShardFile(t *testing.T) {
	dir := t.TempDir()
	truncated := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncated, []byte(`{"schema":"clfuzz-shard/v1","records":[{"ind`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadShardFile(truncated)
	if err == nil {
		t.Fatal("loaded a truncated file")
	}
	if !strings.Contains(err.Error(), "truncated.json") || !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("error %q does not identify the corrupt file", err)
	}
	if _, err := LoadShardFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("loaded an absent file")
	}
	// Round trip through MergeShardPaths.
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16}
	eng := freshEngine(true)
	var paths []string
	for s := 0; s < 2; s++ {
		sf, err := runShard(nil, eng, p, s, 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "shard-"+string(rune('0'+s))+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := MergeShardPaths(paths)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := renderCampaign(nil, freshEngine(true), p)
	if err != nil {
		t.Fatal(err)
	}
	if merged != ref {
		t.Fatal("MergeShardPaths output differs from the unsharded run")
	}
}

// TestShardResume: a partial prior file is reused — only the missing
// cases execute — and the result is byte-identical to a fresh run.
func TestShardResume(t *testing.T) {
	p := Params{Table: 4, Scale: 2, Seed: 99, Threads: 24}
	full, err := runShard(nil, freshEngine(true), p, 0, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) < 2 {
		t.Fatalf("campaign too small for the test: %d records", len(full.Records))
	}
	partial := *full
	partial.Records = append([]ShardRecord(nil), full.Records[:1]...)
	var ran int
	resumed, err := runShard(nil, freshEngine(true), p, 0, 2, &partial, func(int) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != len(full.Records)-1 {
		t.Fatalf("resume ran %d cases, want %d (only the missing ones)", ran, len(full.Records)-1)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Fatalf("resumed shard differs from the fresh run:\n%s\nvs\n%s", a, b)
	}
	// A prior file from a different slice or campaign must be refused.
	wrong := *full
	wrong.Shard = 1
	if _, err := runShard(nil, freshEngine(true), p, 0, 2, &wrong, nil); err == nil {
		t.Error("resume accepted a prior file from another slice")
	}
}

// TestShardCancellation: a cancelled shard run returns ctx's error plus
// a valid partial file that resumes to the byte-identical full result.
func TestShardCancellation(t *testing.T) {
	p := Params{Table: 4, Scale: 2, Seed: 99, Threads: 24}
	full, err := runShard(nil, freshEngine(true), p, 0, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var flushed *ShardFile
	partial, err := runShard(ctx, freshEngine(true), p, 0, 1, nil, func(done int) {
		if done == 1 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	flushed = partial
	if flushed == nil {
		t.Fatal("no partial file flushed on cancellation")
	}
	if len(flushed.Records) >= len(full.Records) {
		t.Fatalf("cancelled run completed all %d cases", len(full.Records))
	}
	if err := ValidateShardFile(flushed, "partial"); err != nil {
		t.Fatalf("partial file invalid: %v", err)
	}
	resumed, err := runShard(nil, freshEngine(true), p, 0, 1, flushed, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Fatal("resume after cancellation diverged from the uninterrupted run")
	}
}

// TestStoreWriteFaultsInvisible: a table rendered over a store whose
// every write fails equals the table rendered without a store. The
// store's directory is replaced by a regular file after Open, so each
// segment create fails, even as root, which a chmod would not ensure.
// Each failed Put is a counted write error, never an error, a wrong row
// or a missing row.
func TestStoreWriteFaultsInvisible(t *testing.T) {
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16}
	want, err := renderCampaign(nil, freshEngine(true), p)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := freshEngine(true)
	eng.Results.AttachStore(st)
	got, err := renderCampaign(nil, eng, p)
	if err != nil {
		t.Fatalf("render over a failing store: %v", err)
	}
	if got != want {
		t.Fatalf("render over a failing store differs from the store-less render:\n%s\nvs\n%s", got, want)
	}
	if s := st.Stats(); s.WriteErrs == 0 || s.Writes != 0 {
		t.Fatalf("store stats %+v: want failed writes only", s)
	}
}
