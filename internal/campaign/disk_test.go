package campaign_test

import (
	"testing"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/store"
)

// TestDiskTierReplaysCompileOutcomes: compile outcomes are stored
// results. Every exhibit unit documented to fail its build or hang its
// compiler (Figures 1(c), 1(e) and 1(f)) and a sema rejection run
// through an engine with a store, then through a fresh engine on a fresh
// handle of the same directory. The second engine must replay each
// outcome from disk with its Compile bit, which clrun's exit status and
// Table 1's slow-compile column read, and must compile nothing.
func TestDiskTierReplaysCompileOutcomes(t *testing.T) {
	type unit struct {
		c   campaign.Case
		cfg *device.Config
		opt bool
	}
	var units []unit
	for _, e := range exhibits.All() {
		c := campaign.Case{Name: e.ID, Src: e.Src, ND: e.ND, Buffers: e.Args}
		for _, a := range e.Affected {
			if a.Kind == exhibits.BuildFails || a.Kind == exhibits.CompileHangs {
				units = append(units, unit{c, device.ByID(a.ConfigID), a.Optimize})
			}
		}
	}
	// Config 15's front end rejects mixing a signed int with size_t.
	nd := exec.NDRange{Global: [3]int{1, 1, 1}, Local: [3]int{1, 1, 1}}
	sizeTMix := campaign.Case{Name: "size_t mix", ND: nd, Buffers: outArgs(nd), Src: `
kernel void k(global ulong *out) {
    int x = 0;
    x |= get_group_id(0);
    out[get_linear_global_id()] = (ulong)x;
}
`}
	units = append(units, unit{sizeTMix, device.ByID(15), true})
	// Units of one source with one defect model share a result key; the
	// warm engine reads each key from disk once.
	type unitKey struct {
		src string
		mk  campaign.ModelKey
	}
	keys := map[unitKey]bool{}
	for _, u := range units {
		keys[unitKey{u.c.Src, campaign.ModelKeyOf(u.cfg, u.opt)}] = true
	}

	dir := t.TempDir()
	engine := func() *campaign.Engine {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := &campaign.Engine{Front: device.NewFrontCache(16), Results: campaign.NewResultCache(64)}
		eng.Results.AttachStore(s)
		return eng
	}
	cold := engine()
	want := make([]campaign.UnitResult, len(units))
	for i, u := range units {
		want[i] = cold.RunCase(u.cfg, u.opt, u.c, campaign.LaunchOptions{})
		if !want[i].Compile {
			t.Fatalf("%s on %s: %+v, want a compile outcome", u.c.Name, campaign.Key(u.cfg, u.opt), want[i])
		}
	}
	if w := want[len(want)-1]; w.Outcome != device.BuildFailure {
		t.Fatalf("size_t mix on 15+: %+v, want a build failure", w)
	}

	warm := engine()
	bh, bm, _ := device.DefaultBackCache.Stats()
	for i, u := range units {
		got, w := warm.RunCase(u.cfg, u.opt, u.c, campaign.LaunchOptions{}), want[i]
		if got.Outcome != w.Outcome || got.Msg != w.Msg || !got.Compile || !got.Cached {
			t.Errorf("%s on %s: warm (%v, %q, compile=%v, cached=%v), cold (%v, %q)",
				u.c.Name, campaign.Key(u.cfg, u.opt), got.Outcome, got.Msg, got.Compile, got.Cached, w.Outcome, w.Msg)
		}
	}
	if h, m, _ := device.DefaultBackCache.Stats(); h != bh || m != bm {
		t.Errorf("the warm engine compiled: %d back-cache hits and %d misses, want none", h-bh, m-bm)
	}
	if hits, misses := warm.Results.DiskStats(); hits != uint64(len(keys)) || misses != 0 {
		t.Errorf("disk hits=%d misses=%d, want %d and 0", hits, misses, len(keys))
	}
}
