package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/device"
	"clfuzz/internal/emi"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/store"
)

// TestResultCacheCollisionGuard exercises the 64-bit collision-guard
// miss path directly: an entry stored under a key must not be served to
// a lookup with the same key but a different source text (the scenario
// a srcHash collision would produce), and the true owner must still hit.
func TestResultCacheCollisionGuard(t *testing.T) {
	rc := NewResultCache(8)
	k := resultKey{srcHash: 42, digest: 7}
	rc.put(k, "kernel A", UnitResult{Outcome: device.OK, Output: []uint64{1}}, coverDelta{})
	if _, _, ok := rc.get(k, "kernel B"); ok {
		t.Fatal("entry served across a source mismatch (collision guard broken)")
	}
	if r, _, ok := rc.get(k, "kernel A"); !ok || r.Output[0] != 1 {
		t.Fatalf("true owner missed its own entry: %+v %v", r, ok)
	}
	hits, misses, _ := rc.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestResultCacheFIFOOrder pins the eviction order: insertion order,
// oldest first, unaffected by intervening hits (FIFO, not LRU — hit
// patterns must not change which entries survive).
func TestResultCacheFIFOOrder(t *testing.T) {
	rc := NewResultCache(2)
	key := func(i uint64) resultKey { return resultKey{srcHash: i} }
	src := func(i uint64) string { return fmt.Sprintf("src %d", i) }
	rc.put(key(1), src(1), UnitResult{}, coverDelta{})
	rc.put(key(2), src(2), UnitResult{}, coverDelta{})
	// A hit on the oldest entry must not protect it from FIFO eviction.
	if _, _, ok := rc.get(key(1), src(1)); !ok {
		t.Fatal("warm-up hit missed")
	}
	rc.put(key(3), src(3), UnitResult{}, coverDelta{}) // evicts 1, not 2
	if _, _, ok := rc.get(key(1), src(1)); ok {
		t.Fatal("oldest entry survived past the bound (LRU-style protection?)")
	}
	if _, _, ok := rc.get(key(2), src(2)); !ok {
		t.Fatal("second-oldest entry was evicted out of order")
	}
	rc.put(key(4), src(4), UnitResult{}, coverDelta{}) // evicts 2
	if _, _, ok := rc.get(key(2), src(2)); ok {
		t.Fatal("entry 2 survived eviction, order is not FIFO")
	}
	if _, _, ok := rc.get(key(3), src(3)); !ok {
		t.Fatal("entry 3 missing")
	}
}

// TestEMIVariantHitsBase pins the canonical-printing payoff the store
// work depends on (ISSUE 9 acceptance criterion): an unpruned EMI
// variant — the re-printed text of its base, exactly what emi.Grid()[0]
// produces for Table 5 — must hit the result-cache entry the base's own
// run recorded, counter-asserted.
func TestEMIVariantHitsBase(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := testCase("emi-base")
	if r := eng.RunCase(cfg, true, c, LaunchOptions{}); r.Outcome != device.OK {
		t.Fatalf("base run: %+v", r)
	}
	prog, err := parser.Parse(c.Src)
	if err != nil {
		t.Fatal(err)
	}
	po := emi.Grid()[0]
	if po.PLeaf != 0 || po.PCompound != 0 || po.PLift != 0 {
		t.Fatalf("grid[0] = %+v, expected the unpruned combination", po)
	}
	vp, err := emi.Prune(prog, po)
	if err != nil {
		t.Fatal(err)
	}
	variant := c
	variant.Src = ast.Print(vp)
	if variant.Src == c.Src {
		t.Fatal("variant text equals the base verbatim; the test would not exercise canonicalization")
	}
	r := eng.RunCase(cfg, true, variant, LaunchOptions{})
	if !r.Cached {
		t.Fatal("unpruned EMI variant missed its base's result-cache entry")
	}
	hits, _, _ := eng.Results.Stats()
	if hits != 1 {
		t.Fatalf("result-cache hits = %d, want exactly the variant's hit", hits)
	}
}

// TestCacheSkipCounters drives each of the three per-reason skips once:
// a race-checked launch, a launch with a cell-backed (vector-element)
// buffer the digest cannot cover, and a covered launch whose result is
// memoized only under the uncovered population.
func TestCacheSkipCounters(t *testing.T) {
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := testCase("skips")

	eng.RunCase(cfg, true, c, LaunchOptions{CheckRaces: true})
	if nonFlat, race, cover := eng.CacheSkips(); race != 1 || nonFlat != 0 || cover != 0 {
		t.Fatalf("after checked run: skips = %d/%d/%d, want race=1 only", nonFlat, race, cover)
	}

	nd := exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}}
	vec := Case{
		Name: "vec",
		Src: `
kernel void k(global uint4 *v, global ulong *out) {
    out[get_linear_global_id()] = (ulong)v[0].x;
}
`,
		ND: nd,
		Buffers: func() (exec.Args, *exec.Buffer) {
			v := exec.NewBuffer(cltypes.VecOf(cltypes.TUInt, 4), 1)
			out := exec.NewBuffer(cltypes.TULong, 1)
			return exec.Args{"v": {Buf: v}, "out": {Buf: out}}, out
		},
	}
	if r := eng.RunCase(cfg, true, vec, LaunchOptions{}); r.Outcome != device.OK {
		t.Fatalf("vector case: %+v", r)
	}
	if nonFlat, _, _ := eng.CacheSkips(); nonFlat != 1 {
		t.Fatalf("after cell-backed run: nonFlat = %d, want 1", nonFlat)
	}

	// The uncovered run above memoized c under cover=false; a covered
	// lookup probes cover=true, misses, and the twin detection fires.
	eng.RunCase(cfg, true, c, LaunchOptions{})
	var cm exec.CoverMap
	eng.RunCase(cfg, true, c, LaunchOptions{Cover: &cm})
	if _, _, cover := eng.CacheSkips(); cover != 1 {
		t.Fatalf("covered lookup did not record a cover-mismatch skip (got %d)", cover)
	}
}

// TestDiskTierRoundTrip is the two-tier contract end to end within one
// process boundary crossing: an engine populates a store, a second
// engine with a cold memory tier but the same directory is served from
// disk — verified, promoted, byte-identical, and counted.
func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	warm.Results.AttachStore(s1)
	cfg := device.Reference()
	c := testCase("disk")
	first := warm.RunCase(cfg, true, c, LaunchOptions{})
	if first.Outcome != device.OK || first.Cached {
		t.Fatalf("cold run: %+v", first)
	}
	if st := s1.Stats(); st.Writes == 0 {
		t.Fatal("cold run wrote nothing through to the store")
	}

	// Fresh handle and fresh caches: everything this engine knows must
	// come off disk.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cold.Results.AttachStore(s2)
	second := cold.RunCase(cfg, true, c, LaunchOptions{})
	if !second.Cached {
		t.Fatal("fresh process missed the populated store")
	}
	if first.Outcome != second.Outcome || len(first.Output) != len(second.Output) {
		t.Fatalf("disk result differs: %+v vs %+v", first, second)
	}
	for i := range first.Output {
		if first.Output[i] != second.Output[i] {
			t.Fatalf("out[%d] = %#x from disk, want %#x", i, second.Output[i], first.Output[i])
		}
	}
	if hits, misses := cold.Results.DiskStats(); hits != 1 || misses != 0 {
		t.Fatalf("disk stats hits=%d misses=%d, want 1/0", hits, misses)
	}
	// The hit was promoted: a third lookup is served by memory, not disk.
	cold.RunCase(cfg, true, c, LaunchOptions{})
	if hits, _ := cold.Results.DiskStats(); hits != 1 {
		t.Fatalf("promotion failed: disk hits = %d after a memory-warm lookup", hits)
	}
	_, launches := cold.Counters()
	if launches != 0 {
		t.Fatalf("cold engine executed %d launches, want 0 (all served from disk)", launches)
	}
}

// TestDiskTierCorruptEntry truncates the store's segment files to half
// their length, cutting the stored entry short, and requires the launch
// to re-execute (a recorded miss, never an error) and heal the store by
// writing the entry back.
func TestDiskTierCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	warm := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	warm.Results.AttachStore(s)
	cfg := device.Reference()
	c := testCase("corrupt")
	first := warm.RunCase(cfg, true, c, LaunchOptions{})

	segments, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(segments) == 0 {
		t.Fatalf("no store segments found: %v", err)
	}
	for _, p := range segments {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, _ := store.Open(dir)
	cold := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cold.Results.AttachStore(s2)
	second := cold.RunCase(cfg, true, c, LaunchOptions{})
	if second.Cached {
		t.Fatal("truncated entry was served as a hit")
	}
	if second.Outcome != first.Outcome {
		t.Fatalf("re-executed result differs: %+v vs %+v", second, first)
	}
	if hits, misses := cold.Results.DiskStats(); hits != 0 || misses != 1 {
		t.Fatalf("disk stats hits=%d misses=%d, want 0/1", hits, misses)
	}
	if st := s2.Stats(); st.Corrupt == 0 {
		t.Fatal("store did not record the corruption")
	}
	if st := s2.Stats(); st.Writes == 0 {
		t.Fatal("re-execution did not heal the entry")
	}
	// Healed: a third cold engine hits.
	s3, _ := store.Open(dir)
	third := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	third.Results.AttachStore(s3)
	if r := third.RunCase(cfg, true, c, LaunchOptions{}); !r.Cached {
		t.Fatal("healed entry missed")
	}
}

// TestDiskTierOldLayoutHeals: a payload in the layout that kept the
// source inside the JSON has no newline before a raw source, so it is a
// clean miss, not a corrupt record. The unit executes once and appends
// its result in the current layout, which a third handle hits.
func TestDiskTierOldLayoutHeals(t *testing.T) {
	dir := t.TempDir()
	cfg := device.Reference()
	c := testCase("old-layout")
	fe := device.ParseFrontEnd(c.Src)
	args, result := c.Buffers()
	k, ok := resultKeyFor(fe, cfg, true, c.ND, args, result, false)
	if !ok {
		t.Fatal("test unit is not cacheable")
	}
	want := (&Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}).RunCase(cfg, true, c, LaunchOptions{})
	sem := exec.SemanticsTag(k.vm)
	old, err := json.Marshal(map[string]any{
		"sem": sem, "srcHash": k.srcHash, "lvlKey": k.lvlDigest(), "effOpt": k.effOpt,
		"digest": k.digest, "cover": k.cover, "src": fe.Canon,
		"outcome": int(want.Outcome), "output": want.Output,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := store.Open(dir)
	s1.Put(k.addr(sem), old)

	s2, _ := store.Open(dir)
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	eng.Results.AttachStore(s2)
	got := eng.RunCase(cfg, true, c, LaunchOptions{})
	if got.Cached {
		t.Fatal("an old-layout payload was served as a hit")
	}
	if got.Outcome != want.Outcome || !slices.Equal(got.Output, want.Output) {
		t.Fatalf("re-executed result differs: %+v vs %+v", got, want)
	}
	if hits, misses := eng.Results.DiskStats(); hits != 0 || misses != 1 {
		t.Fatalf("disk stats hits=%d misses=%d, want 0/1", hits, misses)
	}
	if _, launches := eng.Counters(); launches != 1 {
		t.Fatalf("%d launches, want 1", launches)
	}
	if st := s2.Stats(); st.Corrupt != 0 || st.Writes != 1 {
		t.Fatalf("store stats %+v, want corrupt=0 and writes=1", st)
	}

	s3, _ := store.Open(dir)
	third := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	third.Results.AttachStore(s3)
	if r := third.RunCase(cfg, true, c, LaunchOptions{}); !r.Cached || !slices.Equal(r.Output, want.Output) {
		t.Fatalf("healed entry: %+v, want a hit with %v", r, want.Output)
	}
}

// TestResultKeySeparatesEngines: the key's engine bit comes from the
// process's engine switch, read before the compile, so a unit memoized
// on the VM misses when the process runs the tree walker and executes
// there. Otherwise the tree-vs-VM suites could compare a memoized VM
// result with itself.
func TestResultKeySeparatesEngines(t *testing.T) {
	saved := device.TreeEngine
	t.Cleanup(func() { device.TreeEngine = saved })
	eng := &Engine{Front: device.NewFrontCache(16), Results: NewResultCache(64)}
	cfg := device.Reference()
	c := testCase("engines")

	device.TreeEngine = false
	vmRun := eng.RunCase(cfg, true, c, LaunchOptions{})
	if vmRun.Outcome != device.OK || vmRun.Cached {
		t.Fatalf("VM run: %+v", vmRun)
	}
	if r := eng.RunCase(cfg, true, c, LaunchOptions{}); !r.Cached {
		t.Fatal("the VM rerun missed its own entry")
	}

	device.TreeEngine = true
	vm0, tree0, _ := exec.EngineCounters()
	treeRun := eng.RunCase(cfg, true, c, LaunchOptions{})
	vm1, tree1, _ := exec.EngineCounters()
	if treeRun.Cached {
		t.Fatal("the tree-engine run was served the VM's memoized result")
	}
	if tree1-tree0 != 1 || vm1 != vm0 {
		t.Fatalf("tree-engine run executed %d tree and %d VM launches, want 1 and 0", tree1-tree0, vm1-vm0)
	}
	if treeRun.Outcome != vmRun.Outcome || !slices.Equal(treeRun.Output, vmRun.Output) {
		t.Fatalf("engines disagree: tree %+v, vm %+v", treeRun, vmRun)
	}
}
