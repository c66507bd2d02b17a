package main

import (
	"fmt"
	"strconv"

	"clfuzz/internal/harness"
)

// A workload is one set of inputs the benchmark runs. A cold workload
// pins the dynamic work of its kernels with a fixed base set — the
// Parboil and Rodinia ports of Table 3 — and a warm one executes no kernel
// at all, so the seed varies only what is compiled and which defect gates
// fire. Cold campaigns over freshly generated kernels, and the clfuzz
// loop, are not workloads: the generator's deliberate heavy loop (22% of
// kernels, 1.5k–29.5k iterations) makes their cost swing by 25% to 150%
// from seed to seed at any run length that fits the budget
// (bench/README.md has the numbers).
type workload struct {
	name string
	kind campaignKind
	// warm measures reruns against a result store the set-up filled.
	warm bool
}

// campaignKind is the cltables campaign a workload runs.
type campaignKind int

const (
	// table3 is cltables -table 3: EMI testing over the benchmark ports.
	table3 campaignKind = iota
	// table4 is cltables -table 4: CLsmith differential testing.
	table4
)

var workloads = []workload{
	{name: "t3-cold", kind: table3},
	{name: "t4-warm", kind: table4, warm: true},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Campaign sizes. Table 3 at scale 6 derives eight EMI variants per
// benchmark, 64 in all, so one campaign runs for seconds. Table 4 at
// scale 16 accepts 96 kernels, enough that which kernels a seed draws
// moves a warm rerun's cost by under 10%; its 4-thread cap only keeps the
// store fill short — a warm rerun executes nothing. Table 3 ignores the
// thread cap; 64 is the cltables default.
const (
	t3Scale   = 6
	t4Scale   = 16
	t4Threads = 4
)

// goldenSeed is the benchmark seed whose outputs bench/golden holds.
const goldenSeed = 1

// golden names the file under bench/golden that holds the campaign's
// output at goldenSeed.
func (k campaignKind) golden() string {
	if k == table3 {
		return "t3.out"
	}
	return "t4.out"
}

// params is the campaign for a benchmark seed, as cltables builds it from
// its flags under the default fuel model.
func (k campaignKind) params(seed int64) harness.Params {
	p := harness.Params{Table: 3, Scale: t3Scale, Seed: campaignSeed(seed), Threads: 64}
	if k == table4 {
		p = harness.Params{Table: 4, Scale: t4Scale, Seed: campaignSeed(seed), Threads: t4Threads}
	}
	p.Fuel = harness.DefaultFuelParam()
	return p
}

// args is the cltables command line of the campaign for a benchmark
// seed.
func (k campaignKind) args(seed int64) []string {
	p := k.params(seed)
	return []string{"-table", strconv.Itoa(p.Table), "-scale", strconv.Itoa(p.Scale),
		"-seed", strconv.FormatInt(p.Seed, 10), "-threads", strconv.Itoa(p.Threads)}
}

// campaignSeed derives the campaign seed from the benchmark seed
// (splitmix64), so neighbouring benchmark seeds share no kernels: Table 4
// draws consecutive generator seeds from its campaign seed.
func campaignSeed(seed int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 31)) * 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z % 1_000_000_000)
}
