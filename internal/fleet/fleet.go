package fleet

import (
	"context"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"time"

	"clfuzz/internal/harness"
)

// WorkerFactory builds the worker process for one shard attempt: a
// command that, when run, executes shard `shard` of `of` and writes the
// clfuzz-shard/v1 file to outPath (atomically — partial writes must
// never be visible under outPath). The command must be bound to ctx
// (osexec.CommandContext), which the supervisor cancels on timeout,
// speculation loss and shutdown; factories may set Cancel/WaitDelay for
// a graceful SIGINT drain before the kill.
//
// cltables re-execs itself here; tests substitute shell scripts.
type WorkerFactory func(ctx context.Context, shard, of int, outPath string) *osexec.Cmd

// Config tunes the supervisor.
type Config struct {
	// Shards is the partition width (and the worker process count: every
	// shard gets its own process, restarted independently on failure).
	Shards int
	// ShardTimeout is the per-attempt wall-clock budget; a worker still
	// running when it expires is killed and the attempt counts as a
	// failure. Zero disables the timeout.
	ShardTimeout time.Duration
	// Retries is the number of re-dispatches a failing shard gets beyond
	// its first attempt before it is quarantined.
	Retries int
	// Backoff is the delay before a shard's first retry; each subsequent
	// retry doubles it, capped at MaxBackoff, with deterministic
	// per-(shard, attempt) jitter so a fleet of failing workers does not
	// relaunch in lockstep. Defaults: 250ms and 5s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// NoSpeculate disables straggler re-dispatch (the speculative
	// duplicate of the last unfinished shard).
	NoSpeculate bool
	// CheckpointDir holds the per-shard result files. A re-run over the
	// same directory resumes: shards whose files are already complete are
	// not re-executed, and workers of partial files re-run only their
	// missing cases. Required.
	CheckpointDir string
	// Worker spawns shard attempts. Required.
	Worker WorkerFactory
	// Log, when non-nil, receives supervision events (printf-style).
	Log func(format string, args ...any)
}

// Report is the outcome of a supervised campaign.
type Report struct {
	// Output is the merged rendered table — byte-identical to a direct
	// unsharded run when no shard was quarantined.
	Output string
	// Launches counts worker processes started (retries and speculative
	// duplicates included; checkpointed shards excluded).
	Launches int
	// Resumed counts shards whose checkpoint file was already complete
	// when the supervisor started, so no worker ran for them.
	Resumed int
	// Quarantined lists the shards that exhausted their retry budget;
	// their cases appear in Output as failed (crash) observations.
	Quarantined []int
	// FailedCases is the total case count across quarantined shards.
	FailedCases int
}

type attemptResult struct {
	shard   int
	attempt int
	err     error
}

type supervisor struct {
	p   harness.Params
	cfg Config

	resCh   chan attemptResult
	retryCh chan int
	// cancels tracks every live attempt's cancel func, keyed by a unique
	// attempt id, grouped per shard so a winning result can kill its
	// shard's other attempts.
	cancels  map[int]map[int]context.CancelFunc
	nextID   int
	inflight map[int]int
}

// Run executes the campaign named by p under supervision: the case list
// is partitioned into cfg.Shards interleaved slices, each dispatched to
// an isolated worker process with retry, backoff, timeout, straggler
// re-dispatch and checkpoint/resume, and the shard files merged into the
// rendered table. A worker crash — including an evaluator panic or an
// OS-level kill — costs one attempt, never the campaign.
func Run(ctx context.Context, p harness.Params, cfg Config) (*Report, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, have %d", cfg.Shards)
	}
	if cfg.Worker == nil {
		return nil, fmt.Errorf("fleet: no worker factory")
	}
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("fleet: no checkpoint directory")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &supervisor{
		p: p, cfg: cfg,
		resCh:    make(chan attemptResult),
		retryCh:  make(chan int),
		cancels:  map[int]map[int]context.CancelFunc{},
		inflight: map[int]int{},
	}
	rep := &Report{}

	// Checkpoint scan: shards with a complete, matching file need no
	// worker at all; anything else (absent, partial, stale, corrupt) is
	// dispatched — the worker itself resumes from a valid partial file.
	remaining := map[int]bool{}
	for i := 0; i < cfg.Shards; i++ {
		if s.checkpointed(i) {
			rep.Resumed++
			cfg.Log("fleet: shard %d/%d already complete in checkpoint, skipping", i, cfg.Shards)
			continue
		}
		remaining[i] = true
	}

	fails := map[int]int{}
	speculated := map[int]bool{}
	quarantined := map[int]bool{}
	for shard := range remaining {
		s.launch(ctx, shard, 1, rep)
	}
	// Speculation exists to outrun a straggler's slow node, which is only
	// evidenced by siblings finishing first; a run that dispatched a
	// single shard (everything else checkpointed) has no siblings, and a
	// duplicate would be pure waste.
	canSpeculate := !cfg.NoSpeculate && len(remaining) > 1
	for len(remaining) > 0 {
		// Straggler re-dispatch: when exactly one shard is still running
		// and every sibling has finished, launch one speculative
		// duplicate; the first attempt to produce a valid file wins and
		// the loser is killed. Both write the same deterministic bytes,
		// so the rename race is benign.
		if canSpeculate && len(remaining) == 1 {
			for shard := range remaining {
				if !speculated[shard] && s.inflight[shard] == 1 {
					speculated[shard] = true
					cfg.Log("fleet: speculatively re-dispatching straggler shard %d", shard)
					s.launch(ctx, shard, fails[shard]+1, rep)
				}
			}
		}
		select {
		case r := <-s.resCh:
			s.inflight[r.shard]--
			delete(s.cancels[r.shard], r.attempt)
			if !remaining[r.shard] {
				continue // a sibling attempt already settled this shard
			}
			if r.err == nil {
				delete(remaining, r.shard)
				s.killShard(r.shard) // speculation loser, if any
				cfg.Log("fleet: shard %d complete", r.shard)
				continue
			}
			fails[r.shard]++
			cfg.Log("fleet: shard %d attempt failed (%d/%d): %v", r.shard, fails[r.shard], 1+cfg.Retries, r.err)
			if s.inflight[r.shard] > 0 {
				continue // a duplicate is still running; let it race the verdict
			}
			if fails[r.shard] > cfg.Retries {
				delete(remaining, r.shard)
				quarantined[r.shard] = true
				cfg.Log("fleet: shard %d quarantined after %d failures", r.shard, fails[r.shard])
				continue
			}
			delay := backoffFor(cfg.Backoff, cfg.MaxBackoff, r.shard, fails[r.shard])
			cfg.Log("fleet: retrying shard %d in %v", r.shard, delay)
			go func(shard int) {
				select {
				case <-time.After(delay):
					select {
					case s.retryCh <- shard:
					case <-ctx.Done():
					}
				case <-ctx.Done():
				}
			}(r.shard)
		case shard := <-s.retryCh:
			if remaining[shard] && s.inflight[shard] == 0 {
				s.launch(ctx, shard, fails[shard]+1, rep)
			}
		case <-ctx.Done():
			s.shutdown()
			return nil, ctx.Err()
		}
	}
	s.shutdown()

	// Merge: completed shards from their checkpoint files, quarantined
	// shards from synthesized all-crash records, so the table always
	// renders and the loss is visible in it.
	var files []*harness.ShardFile
	var names []string
	for i := 0; i < cfg.Shards; i++ {
		if quarantined[i] {
			sf, err := harness.QuarantineShard(p, i, cfg.Shards)
			if err != nil {
				return nil, fmt.Errorf("fleet: quarantine shard %d: %w", i, err)
			}
			files = append(files, sf)
			names = append(names, fmt.Sprintf("quarantined shard %d", i))
			rep.Quarantined = append(rep.Quarantined, i)
			rep.FailedCases += len(sf.Records)
			continue
		}
		path := s.shardPath(i)
		sf, err := harness.LoadShardFile(path)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		files = append(files, sf)
		names = append(names, path)
	}
	sort.Ints(rep.Quarantined)
	out, err := harness.MergeShardsNamed(files, names)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	rep.Output = out
	return rep, nil
}

func (s *supervisor) shardPath(i int) string {
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("shard-%d-of-%d.json", i, s.cfg.Shards))
}

// checkpointed reports whether shard i's file is already a complete,
// matching result.
func (s *supervisor) checkpointed(i int) bool {
	sf, err := harness.LoadShardFile(s.shardPath(i))
	if err != nil {
		return false
	}
	return sf.Params == s.p && sf.Shard == i && sf.Of == s.cfg.Shards && sf.Complete()
}

// launch starts one worker attempt for the shard.
func (s *supervisor) launch(ctx context.Context, shard, attempt int, rep *Report) {
	actx, cancel := context.WithCancel(ctx)
	if s.cfg.ShardTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, s.cfg.ShardTimeout)
	}
	id := s.nextID
	s.nextID++
	if s.cancels[shard] == nil {
		s.cancels[shard] = map[int]context.CancelFunc{}
	}
	s.cancels[shard][id] = cancel
	s.inflight[shard]++
	rep.Launches++
	s.cfg.Log("fleet: launching shard %d/%d (attempt %d)", shard, s.cfg.Shards, attempt)
	go func() {
		defer cancel()
		err := s.attempt(actx, shard)
		if err != nil && actx.Err() == context.DeadlineExceeded {
			err = fmt.Errorf("shard %d: timed out after %v", shard, s.cfg.ShardTimeout)
		}
		s.resCh <- attemptResult{shard: shard, attempt: id, err: err}
	}()
}

// attempt runs one worker process to completion and validates its
// output file. Any failure — spawn error, nonzero exit, kill, missing,
// truncated, mismatched or incomplete output — is one failed attempt.
// On Unix the worker leads a process group of its own, and whatever it
// started is killed with the group once it has exited, so a worker that
// is a wrapper script, killed on timeout, leaves no child running.
func (s *supervisor) attempt(ctx context.Context, shard int) error {
	out := s.shardPath(shard)
	cmd := s.cfg.Worker(ctx, shard, s.cfg.Shards, out)
	ownGroup(cmd)
	err := cmd.Run()
	killGroup(cmd)
	if err != nil {
		return fmt.Errorf("shard %d: worker: %w", shard, err)
	}
	sf, err := harness.LoadShardFile(out)
	if err != nil {
		return fmt.Errorf("shard %d: %w", shard, err)
	}
	if sf.Params != s.p || sf.Shard != shard || sf.Of != s.cfg.Shards {
		return fmt.Errorf("shard %d: %s holds shard %d/%d of another campaign", shard, out, sf.Shard, sf.Of)
	}
	if !sf.Complete() {
		return fmt.Errorf("shard %d: %s is incomplete (%d records)", shard, out, len(sf.Records))
	}
	return nil
}

// killShard cancels every live attempt of the shard.
func (s *supervisor) killShard(shard int) {
	for id, cancel := range s.cancels[shard] {
		cancel()
		delete(s.cancels[shard], id)
	}
}

// shutdown kills all live attempts and drains their results so no
// goroutine is left blocked on the result channel.
func (s *supervisor) shutdown() {
	for _, m := range s.cancels {
		for id, cancel := range m {
			cancel()
			delete(m, id)
		}
	}
	live := 0
	for _, n := range s.inflight {
		live += n
	}
	for live > 0 {
		r := <-s.resCh
		s.inflight[r.shard]--
		live--
	}
}

// backoffFor returns the delay before the shard's next retry: Backoff
// doubled per prior failure, capped at max, with deterministic
// per-(shard, attempt) jitter in [d/2, d) so repeated runs are
// reproducible but a failing fleet does not retry in lockstep.
func backoffFor(base, max time.Duration, shard, fails int) time.Duration {
	d := base
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := uint64(shard+1)*0x9E3779B97F4A7C15 ^ uint64(fails)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	frac := float64(h%1024) / 1024
	return d/2 + time.Duration(float64(d/2)*frac)
}
