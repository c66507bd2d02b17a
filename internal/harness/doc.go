// Package harness orchestrates the paper's testing campaigns: the initial
// classification of configurations against a reliability threshold
// (Table 1, §7.1), intensive CLsmith-based differential testing (Table 4,
// §7.3), CLsmith+EMI testing (Table 5, §7.4) and EMI testing over the
// benchmark ports (Table 3, §7.2). Every campaign runs on the shared
// substrate in internal/campaign — the staged streaming pipeline with
// compile-once front/back caches, defect-model run deduplication, the
// cross-base result cache, one worker-budget planner and a deterministic
// ordered merge — and is fully deterministic in its seeds.
//
// # Record / fold split
//
// Each table runner is three deterministic pieces: a case list
// regenerated from the campaign parameters (including the
// execution-backed acceptance filters of Tables 4/5), a per-case record
// (a serializable summary of that case's observations), and a fold that
// assembles records — always in case order — into the rendered table.
// The public entry points (ClassifyConfigurations, EMIBenchmarkCampaign,
// CLsmithCampaign, EMICampaign) stream the whole case list; the shard
// driver runs an interleaved slice of it:
//
//   - RunShardOpts executes cases i, i+n, i+2n, … and emits a ShardFile
//     — the machine-readable partial-results format behind
//     `cltables -shard i/n`;
//   - MergeShardPaths (`cltables -merge`) and MergeShardsNamed (the fleet
//     supervisor) validate that a set of shard files covers every case
//     exactly once and fold them into output byte-identical to the
//     unsharded run;
//   - RenderCampaign is the unsharded path, implemented as a one-shard
//     run plus a merge so the two flows cannot diverge.
//
// determinism_test.go and shard_test.go pin the invariants byte for
// byte under -race — cached vs uncached compilation and results,
// sharded vs unsharded campaigns, parallel vs serial execution, VM vs
// tree engines — with the executor's immutable-program assertion
// (exec.SetDebugImmutable) armed.
//
// Entry points: RunOn / RunEverywhere for single cases, the four
// campaign runners, RunShardOpts / MergeShardPaths / RenderCampaign for
// sharding, and the RenderTable* formatters that print the paper's
// layouts.
package harness
