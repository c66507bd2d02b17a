package harness_test

import (
	"testing"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/harness"
)

// TestAutoCase: the CLI case builder wires the generator's parameter
// conventions so any generated kernel runs without a bespoke host.
func TestAutoCase(t *testing.T) {
	for _, mode := range []generator.Mode{generator.ModeBarrier, generator.ModeAtomicSection, generator.ModeAll} {
		k := generator.Generate(generator.Options{Mode: mode, Seed: 99, MaxTotalThreads: 32, EMIBlocks: 1})
		c, err := harness.AutoCase("k", k.Src, k.ND)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		r := harness.RunOn(device.Reference(), true, c)
		if r.Outcome != device.OK {
			t.Fatalf("%s: AutoCase run failed: %s", mode, r.Outcome)
		}
		// AutoCase buffers must match the generator's own buffers: the
		// results agree.
		gr := harness.RunOn(device.Reference(), true, harness.CaseFromKernel(k, "g"))
		if gr.Outcome != device.OK {
			t.Fatal("generator buffers failed")
		}
		for i := range r.Output {
			if r.Output[i] != gr.Output[i] {
				t.Fatalf("%s: AutoCase and generator buffers disagree", mode)
			}
		}
	}
	if _, err := harness.AutoCase("bad", "int f(void) { return 1; }", exec.NDRange{}); err == nil {
		t.Error("AutoCase accepted a program without a kernel")
	}
}

// TestKeys: the paper's ± notation.
func TestKeys(t *testing.T) {
	cfg := device.ByID(12)
	if harness.Key(cfg, true) != "12+" || harness.Key(cfg, false) != "12-" {
		t.Errorf("Key notation wrong: %s %s", harness.Key(cfg, true), harness.Key(cfg, false))
	}
}

// TestAboveThresholdConfigs matches the paper's set.
func TestAboveThresholdConfigs(t *testing.T) {
	got := map[int]bool{}
	for _, c := range harness.AboveThresholdConfigs() {
		got[c.ID] = true
	}
	want := []int{1, 2, 3, 4, 9, 12, 13, 14, 15, 19}
	if len(got) != len(want) {
		t.Fatalf("have %d above-threshold configs, want %d", len(got), len(want))
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("config %d missing from the above-threshold set", id)
		}
	}
}

// TestTable3CellLabels pins the paper's outcome notation.
func TestTable3CellLabels(t *testing.T) {
	cases := []struct {
		cell harness.Table3Cell
		want string
	}{
		{harness.Table3Cell{Outcome: harness.T3OK}, "ok"},
		{harness.Table3Cell{Outcome: harness.T3NG}, "ng"},
		{harness.Table3Cell{Outcome: harness.T3TO}, "to"},
		{harness.Table3Cell{Outcome: harness.T3Crash, SubsOn: true}, "ce"},
		{harness.Table3Cell{Outcome: harness.T3Crash, SubsOff: true}, "cd"},
		{harness.Table3Cell{Outcome: harness.T3Wrong, SubsOn: true, SubsOff: true}, "w?"},
		{harness.Table3Cell{Outcome: harness.T3Wrong, SubsOn: true}, "we"},
	}
	for _, c := range cases {
		if got := c.cell.Label(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
}
