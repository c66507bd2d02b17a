package harness_test

import (
	"testing"

	"clfuzz/internal/device"
	"clfuzz/internal/generator"
	"clfuzz/internal/harness"
	"clfuzz/internal/oracle"
)

// TestClassification runs a scaled-down §7.1 initial campaign and checks
// that the configuration classification matches the paper's Table 1 final
// column: NVIDIA (1-4), anonymous driver 1c (9), the Intel CPUs (12-15)
// and Oclgrind (19) above the reliability threshold, the rest below.
//
// Exactly one configuration is a pinned exception: at this scale config
// 17 (Anon. device 2) fails 23.6% of tests, within the 25% limit, so it
// lands above the threshold where the paper puts it below. The full-size
// `cltables -table 1` campaign misclassifies config 20 (the emulated
// Altera PCIe-385N D5, 23.3%) instead. The test fails if any other
// configuration drifts, or if config 17 starts matching.
func TestClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	rows := harness.ClassifyConfigurations(12, 7, 64, device.DefaultFuel)
	var mismatched []int
	for _, r := range rows {
		if !r.MatchesPaper {
			mismatched = append(mismatched, r.Config.ID)
			t.Logf("config %d (%s): fail%%=%.1f above=%v paper=%v",
				r.Config.ID, r.Config.Device, 100*r.FailureRate(), r.Above, r.Config.PaperAboveThreshold)
		}
	}
	if len(mismatched) != 1 || mismatched[0] != 17 {
		t.Errorf("configurations %v classified differently from the paper, want exactly [17]", mismatched)
	}
}

// TestDifferentialTestingFindsWrongCode checks that the majority-vote
// oracle attributes wrong-code results to buggy configurations and never
// to the reference configuration.
func TestDifferentialTestingFindsWrongCode(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	cfgs := append([]*device.Config{device.Reference()}, harness.AboveThresholdConfigs()...)
	wrongs := 0
	for seed := int64(0); seed < 30; seed++ {
		k := generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: 9000 + seed, MaxTotalThreads: 48})
		c := harness.CaseFromKernel(k, "diff")
		rs := harness.RunEverywhere(cfgs, c, device.DefaultFuel)
		for _, key := range oracle.WrongCode(rs) {
			if key == "0-" || key == "0+" {
				t.Fatalf("seed %d: majority vote blamed the reference configuration", seed)
			}
			wrongs++
		}
	}
	if wrongs == 0 {
		t.Log("no wrong-code results in this small sample (acceptable; rates are low per kernel)")
	}
}
