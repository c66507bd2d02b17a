package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
)

// TestLaunchWorkersBudget pins the nested-stage arithmetic of
// stageWorkers. A stage gets at least one worker and never more than it
// has items, and the caller's width times the stage's fan-out never
// exceeds the machine.
func TestLaunchWorkersBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, width := range []int{0, 1, 2, 3, procs, procs + 1, 10 * procs} {
		for _, n := range []int{1, 2, 5, procs, 3 * procs} {
			sw := stageWorkers(width, n)
			if sw < 1 || sw > n {
				t.Fatalf("stageWorkers(%d, %d) = %d, want within [1, %d]", width, n, sw, n)
			}
			w := width
			if w < 1 {
				w = 1
			}
			if w*sw > procs && sw != 1 {
				t.Fatalf("stageWorkers(%d, %d) = %d oversubscribes GOMAXPROCS %d", width, n, sw, procs)
			}
		}
	}
}

// TestStreamOrderedMerge: the pipeline's sink observes results strictly
// in index order regardless of worker scheduling, and exactly once each.
func TestStreamOrderedMerge(t *testing.T) {
	const n = 500
	var next int
	var calls atomic.Int64
	Stream(nil, n, func(i int) int {
		calls.Add(1)
		return i * 3
	}, func(i int, r int) {
		if i != next {
			t.Fatalf("sink saw index %d, want %d", i, next)
		}
		if r != i*3 {
			t.Fatalf("sink saw %d for index %d", r, i)
		}
		next++
	})
	if next != n || calls.Load() != n {
		t.Fatalf("next=%d calls=%d, want %d", next, calls.Load(), n)
	}
}

// TestStreamCancellation: a cancelled stream stops dispatching new work
// and the sink still receives a contiguous, exactly-once prefix — the
// invariant the shard resume path depends on.
func TestStreamCancellation(t *testing.T) {
	const n = 200
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	var delivered []int
	Stream(ctx, n, func(i int) int {
		if i == 10 {
			once.Do(cancel)
		}
		return i
	}, func(i, r int) {
		if i != r {
			t.Fatalf("sink saw %d for index %d", r, i)
		}
		delivered = append(delivered, i)
	})
	if len(delivered) == n {
		t.Fatal("cancellation did not stop dispatch")
	}
	for want, got := range delivered {
		if got != want {
			t.Fatalf("delivered prefix not contiguous: position %d holds %d", want, got)
		}
	}
	// A pre-cancelled context delivers nothing.
	done, doneCancel := context.WithCancel(context.Background())
	doneCancel()
	ran := false
	Stream(done, n, func(i int) int { ran = true; return i }, func(int, int) { ran = true })
	if ran {
		t.Fatal("pre-cancelled stream still ran work")
	}
}

// TestGroupUnits pins representative/follower partitioning.
func TestGroupUnits(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "b", "a"}
	reps, follower := GroupUnits(len(keys), func(i int) string { return keys[i] })
	if len(reps) != 3 || reps[0] != 0 || reps[1] != 1 || reps[2] != 3 {
		t.Fatalf("reps = %v", reps)
	}
	want := map[int]int{2: 0, 4: 1, 5: 0}
	if len(follower) != len(want) {
		t.Fatalf("follower = %v", follower)
	}
	for k, v := range want {
		if follower[k] != v {
			t.Fatalf("follower[%d] = %d, want %d", k, follower[k], v)
		}
	}
}

const testKernel = `
kernel void k(global ulong *out) {
    ulong acc = 7;
    for (int i = 0; i < 6; i++) { acc = acc * 47UL + 3UL; }
    out[get_linear_global_id()] = acc;
}
`

func testCase(name string) Case {
	nd := exec.NDRange{Global: [3]int{8, 1, 1}, Local: [3]int{4, 1, 1}}
	return Case{
		Name: name,
		Src:  testKernel,
		ND:   nd,
		Buffers: func() (exec.Args, *exec.Buffer) {
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			return exec.Args{"out": {Buf: out}}, out
		},
	}
}

// TestResultCacheHitIsByteIdentical: a second identical RunCase is served
// from the cache with the same outcome and a detached, equal output.
func TestResultCacheHitIsByteIdentical(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := testCase("hit")
	first := eng.RunCase(cfg, true, c, LaunchOptions{})
	if first.Cached {
		t.Fatal("first run reported a cache hit")
	}
	second := eng.RunCase(cfg, true, c, LaunchOptions{})
	if !second.Cached {
		t.Fatal("second run missed the result cache")
	}
	if first.Outcome != second.Outcome || len(first.Output) != len(second.Output) {
		t.Fatalf("cached result differs: %+v vs %+v", first, second)
	}
	for i := range first.Output {
		if first.Output[i] != second.Output[i] {
			t.Fatalf("out[%d] = %#x vs cached %#x", i, first.Output[i], second.Output[i])
		}
	}
	// Mutating the returned output must not corrupt the memo.
	second.Output[0] ^= 0xffff
	third := eng.RunCase(cfg, true, c, LaunchOptions{})
	if third.Output[0] != first.Output[0] {
		t.Fatal("cache entry was corrupted through a returned slice")
	}
	hits, misses, size := eng.Results.Stats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Fatalf("stats hits=%d misses=%d size=%d", hits, misses, size)
	}
}

// TestResultCacheKeysOnArguments: same source, different argument
// contents must not share a result.
func TestResultCacheKeysOnArguments(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	nd := exec.NDRange{Global: [3]int{4, 1, 1}, Local: [3]int{4, 1, 1}}
	src := `
kernel void k(global ulong *out, global int *in) {
    out[get_linear_global_id()] = (ulong)in[0];
}
`
	mk := func(v uint64) Case {
		return Case{Name: "args", Src: src, ND: nd, Buffers: func() (exec.Args, *exec.Buffer) {
			out := exec.NewBuffer(cltypes.TULong, 4)
			in := exec.NewBuffer(cltypes.TInt, 1)
			in.SetScalar(0, v)
			return exec.Args{"out": {Buf: out}, "in": {Buf: in}}, out
		}}
	}
	a := eng.RunCase(cfg, true, mk(7), LaunchOptions{})
	b := eng.RunCase(cfg, true, mk(9), LaunchOptions{})
	if a.Output[0] != 7 || b.Output[0] != 9 {
		t.Fatalf("outputs %#x / %#x, want 7 / 9", a.Output[0], b.Output[0])
	}
	if b.Cached {
		t.Fatal("different argument contents hit the same cache entry")
	}
}

// TestResultCacheSkipsCheckedRuns: race-checked launches bypass the memo
// (their diagnostics depend on the checker).
func TestResultCacheSkipsCheckedRuns(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := testCase("races")
	eng.RunCase(cfg, true, c, LaunchOptions{CheckRaces: true})
	r := eng.RunCase(cfg, true, c, LaunchOptions{CheckRaces: true})
	if r.Cached {
		t.Fatal("race-checked run was served from the result cache")
	}
	if _, _, size := eng.Results.Stats(); size != 0 {
		t.Fatalf("race-checked run populated the cache (%d entries)", size)
	}
}

// TestRunMatrixDedupAndOrder: the matrix returns results in unit order,
// model-sharing units replicate the representative byte for byte, and
// only one launch per distinct model executes.
func TestRunMatrixDedupAndOrder(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfgs := []*device.Config{device.ByID(1), device.ByID(2), device.ByID(3)} // share the NVIDIA models
	c := testCase("matrix")
	// Tune the source until no hash-gated defect fires on the shared
	// models, so every unit terminates OK with an output to compare.
	for i := 0; !cfgs[0].GatesClean(c.Src, true) || !cfgs[0].GatesClean(c.Src, false); i++ {
		// Tuning text must survive canonical re-printing (comments are
		// stripped), so perturb the hash with a program-scope declaration.
		c.Src = testKernel + fmt.Sprintf("constant int gate_tuning_%d = %d;\n", i, i)
	}
	var units []Unit
	for _, cfg := range cfgs {
		units = append(units, Unit{Cfg: cfg, Opt: false}, Unit{Cfg: cfg, Opt: true})
	}
	m := Matrix{
		Name:    c.Name,
		Sources: []string{c.Src},
		ND:      c.ND,
		Buffers: func(int) (exec.Args, *exec.Buffer) { return c.Buffers() },
		Units:   units,
	}
	rs := eng.RunMatrix(m, 1)
	if len(rs) != len(units) {
		t.Fatalf("%d results, want %d", len(rs), len(units))
	}
	for i, u := range units {
		if rs[i].Key != Key(u.Cfg, u.Opt) {
			t.Fatalf("result %d keyed %s, want %s", i, rs[i].Key, Key(u.Cfg, u.Opt))
		}
	}
	// Configs 1-3 share both defect models: representatives are unit 0
	// (noopt) and unit 1 (opt) only.
	_, launches := eng.Counters()
	if launches != 2 {
		t.Fatalf("%d launches executed, want 2 (model dedup)", launches)
	}
	for i := 2; i < len(rs); i += 2 {
		for j := range rs[0].Output {
			if rs[i].Output[j] != rs[0].Output[j] {
				t.Fatalf("follower %d output differs from representative", i)
			}
		}
	}
	// Follower outputs are detached copies.
	rs[2].Output[0] ^= 1
	if rs[0].Output[0] == rs[2].Output[0] {
		t.Fatal("follower output aliases the representative's")
	}
}

// TestCanceledLaunchNeverCached: a cancelled launch describes the
// cancellation, not the kernel — it must yield device.Canceled and must
// never populate the result cache.
func TestCanceledLaunchNeverCached(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := testCase("cancel")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := eng.RunCase(cfg, true, c, LaunchOptions{Ctx: ctx})
	if r.Outcome != device.Canceled {
		t.Fatalf("outcome = %v, want Canceled", r.Outcome)
	}
	if _, _, size := eng.Results.Stats(); size != 0 {
		t.Fatalf("cancelled launch populated the result cache (%d entries)", size)
	}
	// The same case without the dead context must run fresh and succeed.
	r2 := eng.RunCase(cfg, true, c, LaunchOptions{})
	if r2.Outcome != device.OK || r2.Cached {
		t.Fatalf("fresh run after cancellation: %+v", r2)
	}
}

// TestResultCacheEviction: FIFO eviction keeps the cache bounded.
func TestResultCacheEviction(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(64), Results: NewResultCache(2)}
	cfg := device.Reference()
	for v := 0; v < 4; v++ {
		src := fmt.Sprintf(`
kernel void k(global ulong *out) { out[get_linear_global_id()] = %dUL; }
`, v)
		c := Case{Name: "ev", Src: src, ND: exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}},
			Buffers: func() (exec.Args, *exec.Buffer) {
				out := exec.NewBuffer(cltypes.TULong, 1)
				return exec.Args{"out": {Buf: out}}, out
			}}
		r := eng.RunCase(cfg, true, c, LaunchOptions{})
		if r.Outcome != device.OK || r.Output[0] != uint64(v) {
			t.Fatalf("v=%d: %+v", v, r)
		}
	}
	if _, _, size := eng.Results.Stats(); size != 2 {
		t.Fatalf("cache size %d, want 2 (FIFO bound)", size)
	}
}
