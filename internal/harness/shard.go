package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"clfuzz/internal/benchmarks"
	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/generator"
)

// ShardSchema identifies the partial-results file format.
const ShardSchema = "clfuzz-shard/v1"

// Params fixes the campaign inputs every shard of one campaign must
// share: the table, its size, and the generation seeds. Two shard files
// with differing Params cannot be merged.
type Params struct {
	// Table selects the campaign: 1, 3, 4 or 5.
	Table int `json:"table"`
	// Scale is the campaign size per unit (kernels per mode for Tables
	// 1/4, EMI bases for Table 5, variants-per-benchmark ÷2+1 input for
	// Table 3 — the same value cltables -scale passes).
	Scale int   `json:"scale"`
	Seed  int64 `json:"seed"`
	// Threads caps generated-kernel thread counts (unused by Table 3).
	Threads int `json:"threads"`
	// Chains is the number of independent fuzzing chains of the
	// coverage-guided campaign (Table 6 / cltables -fuzz); 0 means the
	// default of 4. Ignored by the paper tables.
	Chains int `json:"chains,omitempty"`
	// Fresh disables the fuzz campaign's feedback: every step generates a
	// fresh swarm-random kernel and the corpus is never consulted. This is
	// the equal-budget pure-random baseline the coverage-over-time series
	// compares against. Ignored by the paper tables.
	Fresh bool `json:"fresh,omitempty"`
	// Fuel is the fuel-model record of shard files written by builds
	// that had a second fuel model: "v2" for that model's campaigns. The
	// executor now has one tree-exact model, so campaigns leave Fuel
	// empty (omitted, keeping shard files byte-identical to earlier
	// ones). A file that records a model is refused: resume requires
	// equal Params, and merge rejects the file by name.
	Fuel string `json:"fuel,omitempty"`
}

// DefaultFuelParam returns the Params.Fuel record of a campaign run by
// this build, which is always empty.
func DefaultFuelParam() string {
	return ""
}

// chainCount resolves the fuzz campaign's chain count.
func (p Params) chainCount() int {
	if p.Chains > 0 {
		return p.Chains
	}
	return 4
}

// ShardRecord is one case's serialized campaign record.
type ShardRecord struct {
	Index int             `json:"index"`
	Data  json.RawMessage `json:"data"`
}

// ShardFile is the machine-readable partial-results file `cltables
// -shard i/n` emits: the campaign parameters, the total case count, and
// this shard's records (cases with index % n == i). A shard file may be
// partial — an interrupted run flushes whatever cases completed — and
// the resume path (RunShard's prior file) re-runs only the missing ones.
type ShardFile struct {
	Schema string `json:"schema"`
	Params
	Cases   int           `json:"cases"`
	Shard   int           `json:"shard"`
	Of      int           `json:"of"`
	Records []ShardRecord `json:"records"`
}

// shardCampaign adapts one table's case list, per-case runner and fold
// to the shard driver. run returns the case's JSON-serializable record;
// render folds records (complete, in case order) into the rendered
// output.
type shardCampaign struct {
	cases  int
	run    func(ctx context.Context, i int) any
	render func(records []json.RawMessage) (string, error)
}

// campaignFor builds the shard adapter for the table named by p,
// regenerating the deterministic case list (including any
// execution-backed acceptance filtering, which every shard must repeat —
// the result cache makes the campaign proper reuse those runs).
func campaignFor(eng *campaign.Engine, p Params) (*shardCampaign, error) {
	switch p.Table {
	case 1:
		cfgs := device.All()
		n := table1Cases(p.Scale)
		return &shardCampaign{
			cases: n,
			run: func(ctx context.Context, i int) any {
				return table1Record(ctx, eng, cfgs, p.Scale, p.Seed, p.Threads, i, n)
			},
			render: func(records []json.RawMessage) (string, error) {
				recs, err := decodeRecords[t1Record](records)
				if err != nil {
					return "", err
				}
				return RenderTable1(foldTable1(cfgs, recs)), nil
			},
		}, nil
	case 3:
		testCfgs := table3Configs()
		clean := benchmarks.Clean()
		variants := p.Scale/2 + 1
		return &shardCampaign{
			cases: len(clean),
			run: func(ctx context.Context, i int) any {
				return table3Record(ctx, eng, testCfgs, clean[i], variants, p.Seed, len(clean))
			},
			render: func(records []json.RawMessage) (string, error) {
				recs, err := decodeRecords[t3Record](records)
				if err != nil {
					return "", err
				}
				return RenderTable3(foldTable3(recs)), nil
			},
		}, nil
	case 4:
		cfgs := AboveThresholdConfigs()
		// The accepted kernel list is regenerated lazily: a merge only
		// folds records and must not pay for (or require) the acceptance
		// executions.
		kernels := sync.OnceValue(func() [][]*generator.Kernel {
			return table4Kernels(eng, p.Scale, p.Seed, p.Threads)
		})
		n := len(generator.Modes) * p.Scale
		return &shardCampaign{
			cases: n,
			run: func(ctx context.Context, i int) any {
				return table4Record(ctx, eng, cfgs, kernels(), p.Scale, i, n)
			},
			render: func(records []json.RawMessage) (string, error) {
				recs, err := decodeRecords[t4Record](records)
				if err != nil {
					return "", err
				}
				return RenderTable4(foldTable4(cfgs, p.Scale, recs)), nil
			},
		}, nil
	case 5:
		cfgs := AboveThresholdConfigs()
		keys := table5Keys(cfgs)
		// generateEMIBases returns exactly Scale bases; regenerate them
		// lazily so a merge folds without re-running the keep-filter.
		bases := sync.OnceValue(func() []*generator.Kernel {
			return generateEMIBases(eng, p.Scale, p.Seed, p.Threads)
		})
		return &shardCampaign{
			cases: p.Scale,
			run: func(ctx context.Context, i int) any {
				return table5Record(ctx, eng, cfgs, keys, bases()[i], p.Scale)
			},
			render: func(records []json.RawMessage) (string, error) {
				recs, err := decodeRecords[t5Record](records)
				if err != nil {
					return "", err
				}
				t5 := foldTable5(keys, p.Scale, recs)
				return RenderTable5(t5) + "\n" + RenderPruningComparison(t5), nil
			},
		}, nil
	case FuzzTable:
		return fuzzCampaign(eng, p), nil
	default:
		return nil, fmt.Errorf("harness: table %d is not a shardable campaign (1, 3, 4, 5 or %d)", p.Table, FuzzTable)
	}
}

func decodeRecords[R any](records []json.RawMessage) ([]R, error) {
	out := make([]R, len(records))
	for i, raw := range records {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("harness: record %d: %w", i, err)
		}
	}
	return out, nil
}

// ParseShard parses a slice spelled i/n, the form of `cltables -shard`,
// and checks 0 <= i < n. The value must print back as itself, so
// trailing text, a third field or a sign or leading zero is refused
// rather than ignored.
func ParseShard(s string) (shard, of int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &shard, &of); err != nil || fmt.Sprintf("%d/%d", shard, of) != s {
		return 0, 0, fmt.Errorf("harness: shard %q is not i/n", s)
	}
	if shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("harness: shard %s is not 0 <= i < n", s)
	}
	return shard, of, nil
}

// RunShard executes shard `shard` of `of` interleaved campaign slices
// (cases with index % of == shard) and returns the partial-results file.
// The case list itself — including execution-backed acceptance filtering
// — is deterministic in Params, so every shard sees the identical list
// and the merged output is byte-identical to an unsharded run. A non-nil
// prior resumes a partial file from an earlier, interrupted run of the
// identical slice: its records are reused and only the missing cases
// execute. It must match Params, shard and of exactly.
//
// Cancelling ctx stops dispatch cooperatively; RunShard then returns the
// valid partial file holding every case that completed before the
// cancellation, together with ctx's error. Pass that file back as prior
// to resume.
func RunShard(ctx context.Context, p Params, shard, of int, prior *ShardFile) (*ShardFile, error) {
	return runShard(ctx, campaign.Default, p, shard, of, prior, nil)
}

// runShard is RunShard on eng. onCase, when non-nil, runs on the calling
// goroutine after each case completes, with the completed case count of
// the slice (reused prior cases are counted up front).
func runShard(ctx context.Context, eng *campaign.Engine, p Params, shard, of int, prior *ShardFile, onCase func(done int)) (*ShardFile, error) {
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("harness: bad shard %d/%d", shard, of)
	}
	sc, err := campaignFor(eng, p)
	if err != nil {
		return nil, err
	}
	reuse := map[int]json.RawMessage{}
	if prior != nil {
		if prior.Params != p || prior.Shard != shard || prior.Of != of || prior.Cases != sc.cases {
			return nil, fmt.Errorf("harness: prior shard file is for %d/%d of a %d-case campaign %+v, not %d/%d of %d cases",
				prior.Shard, prior.Of, prior.Cases, prior.Params, shard, of, sc.cases)
		}
		for _, r := range prior.Records {
			reuse[r.Index] = r.Data
		}
	}
	var indices []int
	var records []ShardRecord
	for i := shard; i < sc.cases; i += of {
		if raw, ok := reuse[i]; ok {
			records = append(records, ShardRecord{Index: i, Data: raw})
		} else {
			indices = append(indices, i)
		}
	}
	done := len(records)
	type encoded struct {
		raw json.RawMessage
		err error
	}
	var encodeErr error
	canceled := false
	campaign.Stream(ctx, len(indices), func(i int) encoded {
		raw, err := json.Marshal(sc.run(ctx, indices[i]))
		return encoded{raw, err}
	}, func(i int, e encoded) {
		// The sink runs on this goroutine; error collection needs no lock.
		// Once the context has fired, any record still arriving may fold a
		// matrix that was cancelled mid-launch (device.Canceled units) —
		// drop it; the resume pass re-runs those cases. The Done-channel
		// happens-before guarantees every poisoned record arrives after
		// ctx.Err() is observable here, so none can slip into the file.
		if canceled {
			return
		}
		if ctx != nil && ctx.Err() != nil {
			canceled = true
			return
		}
		if e.err != nil && encodeErr == nil {
			encodeErr = e.err
		}
		records = append(records, ShardRecord{Index: indices[i], Data: e.raw})
		done++
		if onCase != nil {
			onCase(done)
		}
	})
	if encodeErr != nil {
		return nil, encodeErr
	}
	sort.Slice(records, func(a, b int) bool { return records[a].Index < records[b].Index })
	sf := &ShardFile{
		Schema: ShardSchema, Params: p,
		Cases: sc.cases, Shard: shard, Of: of,
		Records: records,
	}
	if ctx != nil && ctx.Err() != nil {
		return sf, ctx.Err()
	}
	return sf, nil
}

// ValidateShardFile checks a shard file's internal consistency: schema,
// shard/of sanity, every record index in range and in the file's slice,
// no duplicate indices, and well-formed record payloads. name labels the
// file in errors (typically its path).
func ValidateShardFile(sf *ShardFile, name string) error {
	if sf.Schema != ShardSchema {
		return fmt.Errorf("harness: %s: unknown shard schema %q (want %q)", name, sf.Schema, ShardSchema)
	}
	if sf.Of < 1 || sf.Shard < 0 || sf.Shard >= sf.Of {
		return fmt.Errorf("harness: %s: bad shard %d/%d", name, sf.Shard, sf.Of)
	}
	if sf.Cases < 0 {
		return fmt.Errorf("harness: %s: negative case count %d", name, sf.Cases)
	}
	seen := map[int]bool{}
	for ri, r := range sf.Records {
		if r.Index < 0 || r.Index >= sf.Cases {
			return fmt.Errorf("harness: %s: record %d: index %d out of range (%d cases)", name, ri, r.Index, sf.Cases)
		}
		if r.Index%sf.Of != sf.Shard {
			return fmt.Errorf("harness: %s: record %d: case %d does not belong to shard %d/%d", name, ri, r.Index, sf.Shard, sf.Of)
		}
		if seen[r.Index] {
			return fmt.Errorf("harness: %s: case %d appears twice", name, r.Index)
		}
		seen[r.Index] = true
		if len(r.Data) == 0 || !json.Valid(r.Data) {
			return fmt.Errorf("harness: %s: record %d (case %d): truncated or corrupt payload", name, ri, r.Index)
		}
	}
	return nil
}

// LoadShardFile reads and validates one shard file from disk. Errors
// name the file: a truncated or corrupt file (a worker killed mid-write
// without the atomic-rename discipline) is reported precisely rather
// than surfacing as a confusing downstream merge failure.
func LoadShardFile(path string) (*ShardFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf ShardFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("harness: %s: truncated or corrupt shard file: %w", path, err)
	}
	if err := ValidateShardFile(&sf, path); err != nil {
		return nil, err
	}
	return &sf, nil
}

// MergeShardPaths loads every named shard file and merges them; errors
// identify the offending file (and case index) by name.
func MergeShardPaths(paths []string) (string, error) {
	files := make([]*ShardFile, len(paths))
	for i, p := range paths {
		sf, err := LoadShardFile(p)
		if err != nil {
			return "", err
		}
		files[i] = sf
	}
	return mergeShards(campaign.Default, files, paths)
}

// mergeShards folds the shard set. names labels the files in errors,
// parallel to files; nil synthesizes positional labels.
func mergeShards(eng *campaign.Engine, files []*ShardFile, names []string) (string, error) {
	if len(files) == 0 {
		return "", fmt.Errorf("harness: no shard files to merge")
	}
	name := func(i int) string {
		if names != nil {
			return names[i]
		}
		return fmt.Sprintf("shard[%d]", i)
	}
	first := files[0]
	type origin struct {
		data json.RawMessage
		file int
	}
	byIndex := map[int]origin{}
	for fi, f := range files {
		if f.Schema != ShardSchema {
			return "", fmt.Errorf("harness: %s: unknown shard schema %q", name(fi), f.Schema)
		}
		if f.Fuel != "" {
			return "", fmt.Errorf("harness: %s: recorded under fuel model %q, which this build no longer runs; rerun the shard", name(fi), f.Fuel)
		}
		if f.Params != first.Params || f.Cases != first.Cases {
			return "", fmt.Errorf("harness: shard parameters disagree: %s has %+v (%d cases), %s has %+v (%d cases)",
				name(fi), f.Params, f.Cases, name(0), first.Params, first.Cases)
		}
		for _, r := range f.Records {
			if r.Index < 0 || r.Index >= f.Cases {
				return "", fmt.Errorf("harness: %s: record index %d out of range (%d cases)", name(fi), r.Index, f.Cases)
			}
			if prev, dup := byIndex[r.Index]; dup {
				return "", fmt.Errorf("harness: case %d appears in both %s and %s", r.Index, name(prev.file), name(fi))
			}
			byIndex[r.Index] = origin{r.Data, fi}
		}
	}
	if len(byIndex) != first.Cases {
		var missing []int
		for i := 0; i < first.Cases; i++ {
			if _, ok := byIndex[i]; !ok {
				missing = append(missing, i)
			}
		}
		sort.Ints(missing)
		return "", fmt.Errorf("harness: incomplete shard set: missing cases %v", missing)
	}
	// The fold stage never re-executes; only the render adapter (which
	// may regenerate the deterministic case list for sizing) needs the
	// engine.
	sc, err := campaignFor(eng, first.Params)
	if err != nil {
		return "", err
	}
	if sc.cases != first.Cases {
		return "", fmt.Errorf("harness: shard files claim %d cases, campaign has %d", first.Cases, sc.cases)
	}
	records := make([]json.RawMessage, first.Cases)
	for i := range records {
		records[i] = byIndex[i].data
	}
	return sc.render(records)
}

// RenderCampaign runs the whole campaign unsharded and renders its
// output. It is literally a one-shard run followed by a merge, so the
// sharded and unsharded paths cannot diverge.
func RenderCampaign(ctx context.Context, p Params) (string, error) {
	return renderCampaign(ctx, campaign.Default, p)
}

func renderCampaign(ctx context.Context, eng *campaign.Engine, p Params) (string, error) {
	sf, err := runShard(ctx, eng, p, 0, 1, nil, nil)
	if err != nil {
		return "", err
	}
	return mergeShards(eng, []*ShardFile{sf}, nil)
}
