package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/generator"
	"clfuzz/internal/oracle"
)

// campaignRecords runs the campaign named by p as a single shard through
// the shared engine, the path RenderCampaign takes, and returns its
// decoded records in case order for the table's fold.
func campaignRecords[R any](t *testing.T, p Params) []R {
	t.Helper()
	sf, err := runShard(nil, campaign.Default, p, 0, 1, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]json.RawMessage, len(sf.Records))
	for i, r := range sf.Records {
		raws[i] = r.Data
	}
	recs, err := decodeRecords[R](raws)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

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
	recs := campaignRecords[t1Record](t, Params{Table: 1, Scale: 12, Seed: 7, Threads: 64})
	rows := foldTable1(device.All(), recs)
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
	cfgs := append([]*device.Config{device.Reference()}, AboveThresholdConfigs()...)
	wrongs := 0
	for seed := int64(0); seed < 30; seed++ {
		k := generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: 9000 + seed, MaxTotalThreads: 48})
		c := CaseFromKernel(k, "diff")
		rs := RunEverywhere(cfgs, c)
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

// TestGenerateAccepted: the §7.3 acceptance filter (compiles and
// terminates on 1+) holds for every produced kernel.
func TestGenerateAccepted(t *testing.T) {
	kernels := generateAccepted(campaign.Default, generator.ModeBasic, 5, 77, 32)
	if len(kernels) != 5 {
		t.Fatalf("got %d kernels, want 5", len(kernels))
	}
	gen1 := device.ByID(1)
	for i, k := range kernels {
		r := RunOn(gen1, true, CaseFromKernel(k, "a"))
		if r.Outcome != device.OK {
			t.Errorf("kernel %d fails the acceptance configuration: %s", i, r.Outcome)
		}
	}
}

// TestTable4Small runs a minimal intensive campaign and checks its
// structural invariants: counts per cell sum to the test count, and the
// defect-free rows exist.
func TestTable4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	recs := campaignRecords[t4Record](t, Params{Table: 4, Scale: 3, Seed: 555, Threads: 32})
	t4 := foldTable4(AboveThresholdConfigs(), 3, recs)
	for _, mode := range generator.Modes {
		n := t4.Tests[mode]
		if n != 3 {
			t.Errorf("%s: %d tests, want 3", mode, n)
		}
		for key, st := range t4.PerMode[mode] {
			if got := st.W + st.BF + st.C + st.TO + st.OK; got != n {
				t.Errorf("%s %s: outcomes sum to %d, want %d", mode, key, got, n)
			}
		}
	}
	out := RenderTable4(t4)
	if !strings.Contains(out, "BARRIER") || !strings.Contains(out, "19+") {
		t.Error("rendered table missing expected rows/columns")
	}
}
