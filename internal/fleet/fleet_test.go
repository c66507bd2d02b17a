package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"testing"
	"time"

	"clfuzz/internal/harness"
)

// Fleet mechanics are tested against scripted fake workers: the
// supervisor only contracts for "a process that leaves a valid
// clfuzz-shard/v1 file at outPath", so the tests precompute payload
// files (empty-record shards of a real Table 1 parameterization, which
// merge and render fine) and drive them through sh scripts that copy,
// fail, hang or race as each scenario needs. The real worker binary is
// exercised end to end by the CI fleet job.

func testParams() harness.Params {
	return harness.Params{Table: 1, Scale: 1, Seed: 7, Threads: 8}
}

// writePayloads writes one complete synthetic shard file per shard into
// dir and returns their paths, indexed by shard.
func writePayloads(t *testing.T, dir string, p harness.Params, of int) []string {
	t.Helper()
	cases, err := harness.CampaignCases(p)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, of)
	for shard := 0; shard < of; shard++ {
		sf := &harness.ShardFile{Schema: harness.ShardSchema, Params: p, Cases: cases, Shard: shard, Of: of}
		for i := shard; i < cases; i += of {
			sf.Records = append(sf.Records, harness.ShardRecord{Index: i, Data: json.RawMessage(`{"results":[]}`)})
		}
		b, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		paths[shard] = filepath.Join(dir, fmt.Sprintf("payload-%d.json", shard))
		if err := os.WriteFile(paths[shard], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// scriptWorker runs the sh script for each attempt with $1=shard,
// $2=of, $3=outPath and $4=a scratch dir for latches.
func scriptWorker(script, scratch string) WorkerFactory {
	return func(ctx context.Context, shard, of int, outPath string) *osexec.Cmd {
		return osexec.CommandContext(ctx, "sh", "-c", script, "worker",
			fmt.Sprint(shard), fmt.Sprint(of), outPath, scratch)
	}
}

// copyScript atomically installs the shard's payload at the out path.
const copyScript = `cp "$4/payload-$1.json" "$3.tmp.$$" && mv "$3.tmp.$$" "$3"`

func TestRunHappyPath(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 3)
	rep, err := Run(context.Background(), p, Config{
		Shards:        3,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(copyScript, scratch),
		NoSpeculate:   true,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 3 || rep.Resumed != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("report = %+v, want 3 launches, 0 resumed, 0 quarantined", rep)
	}
	if rep.Output == "" {
		t.Fatal("empty merged output")
	}

	// The partition width must not affect the merged bytes.
	scratch1 := t.TempDir()
	writePayloads(t, scratch1, p, 1)
	rep1, err := Run(context.Background(), p, Config{
		Shards:        1,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(copyScript, scratch1),
		NoSpeculate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Output != rep.Output {
		t.Fatalf("1-shard output differs from 3-shard output:\n%s\nvs\n%s", rep1.Output, rep.Output)
	}
}

func TestRetryAfterWorkerDeath(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 3)
	// Shard 1's first attempt dies before writing anything; the retry
	// succeeds. Other shards succeed immediately.
	script := `
if [ "$1" = 1 ] && [ ! -e "$4/latch" ]; then touch "$4/latch"; exit 1; fi
` + copyScript
	rep, err := Run(context.Background(), p, Config{
		Shards:        3,
		Retries:       2,
		Backoff:       5 * time.Millisecond,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(script, scratch),
		NoSpeculate:   true,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 4 {
		t.Fatalf("launches = %d, want 4 (3 shards + 1 retry)", rep.Launches)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("quarantined = %v, want none", rep.Quarantined)
	}
}

func TestTimeoutKillsHungWorker(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 2)
	// Shard 0's first attempt hangs; the shard timeout must kill it and
	// the retry succeeds.
	script := `
if [ "$1" = 0 ] && [ ! -e "$4/latch" ]; then touch "$4/latch"; sleep 300; fi
` + copyScript
	rep, err := Run(context.Background(), p, Config{
		Shards:        2,
		Retries:       1,
		ShardTimeout:  300 * time.Millisecond,
		Backoff:       5 * time.Millisecond,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(script, scratch),
		NoSpeculate:   true,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 3 {
		t.Fatalf("launches = %d, want 3 (2 shards + 1 retry of the hung one)", rep.Launches)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("quarantined = %v, want none", rep.Quarantined)
	}
}

func TestQuarantineAfterRetriesExhausted(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 3)
	// Shard 2 never succeeds; the campaign must still complete, with the
	// shard quarantined and its cases surfaced as failures.
	script := `if [ "$1" = 2 ]; then exit 1; fi
` + copyScript
	rep, err := Run(context.Background(), p, Config{
		Shards:        3,
		Retries:       2,
		Backoff:       5 * time.Millisecond,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(script, scratch),
		NoSpeculate:   true,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Quarantined; len(got) != 1 || got[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", got)
	}
	if rep.Launches != 5 {
		t.Fatalf("launches = %d, want 5 (2 good shards + 3 attempts at shard 2)", rep.Launches)
	}
	if rep.FailedCases == 0 {
		t.Fatal("no failed cases counted for the quarantined shard")
	}
	if rep.Output == "" {
		t.Fatal("quarantine aborted the merge")
	}
}

func TestCheckpointResume(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	payloads := writePayloads(t, scratch, p, 3)
	ckpt := t.TempDir()
	// Shards 0 and 1 are already complete in the checkpoint directory;
	// only shard 2 may launch a worker.
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ckpt, fmt.Sprintf("shard-%d-of-3.json", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Speculation stays enabled: a run whose only dispatched shard has no
	// siblings to race must not speculatively duplicate it.
	rep, err := Run(context.Background(), p, Config{
		Shards:        3,
		CheckpointDir: ckpt,
		Worker:        scriptWorker(copyScript, scratch),
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 2 || rep.Launches != 1 {
		t.Fatalf("report = %+v, want 2 resumed and exactly 1 launch", rep)
	}
}

func TestCorruptCheckpointIsRedispatched(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 2)
	ckpt := t.TempDir()
	// A worker killed mid-write without the atomic rename would leave
	// garbage; the supervisor must treat it as absent, not crash on it.
	if err := os.WriteFile(filepath.Join(ckpt, "shard-0-of-2.json"), []byte(`{"schema":"clfuzz-sh`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), p, Config{
		Shards:        2,
		CheckpointDir: ckpt,
		Worker:        scriptWorker(copyScript, scratch),
		NoSpeculate:   true,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 0 || rep.Launches != 2 {
		t.Fatalf("report = %+v, want 0 resumed and 2 launches", rep)
	}
}

func TestSpeculativeRedispatchOfStraggler(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 2)
	// Shard 1's first attempt latches then hangs. With no shard timeout,
	// only the speculative duplicate — dispatched once shard 0 finishes
	// and seeing the latch — can complete the campaign.
	script := `
if [ "$1" = 1 ] && [ ! -e "$4/latch" ]; then touch "$4/latch"; sleep 300; fi
` + copyScript
	rep, err := Run(context.Background(), p, Config{
		Shards:        2,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(script, scratch),
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 3 {
		t.Fatalf("launches = %d, want 3 (2 shards + 1 speculative duplicate)", rep.Launches)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("quarantined = %v, want none", rep.Quarantined)
	}
}

func TestRunCanceled(t *testing.T) {
	p := testParams()
	scratch := t.TempDir()
	writePayloads(t, scratch, p, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, p, Config{
		Shards:        2,
		CheckpointDir: t.TempDir(),
		Worker:        scriptWorker(`sleep 300`, scratch),
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for shard := 0; shard < 4; shard++ {
		for fails := 1; fails <= 6; fails++ {
			d1 := backoffFor(base, max, shard, fails)
			d2 := backoffFor(base, max, shard, fails)
			if d1 != d2 {
				t.Fatalf("backoffFor(%d, %d) not deterministic: %v vs %v", shard, fails, d1, d2)
			}
			if d1 < base/2 || d1 > max {
				t.Fatalf("backoffFor(%d, %d) = %v outside [%v, %v]", shard, fails, d1, base/2, max)
			}
		}
	}
	if a, b := backoffFor(base, max, 0, 1), backoffFor(base, max, 1, 1); a == b {
		t.Fatalf("expected distinct jitter for different shards, both %v", a)
	}
}
