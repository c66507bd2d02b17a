package corpus

import (
	"math/rand"
	"strings"
	"testing"

	"clfuzz/internal/device"
	"clfuzz/internal/generator"
	"clfuzz/internal/parser"
)

// FuzzCorpusMutate is the mutation-robustness fuzz target: any stacked
// mutation of any corpus member must produce source that re-parses, and
// whose full compile — semantic checking, optimization, bytecode
// lowering — terminates without panicking. Semantic rejection is fine
// (such mutants surface as contained build failures downstream); a parse
// failure, a panic, or a mutant that does not lower is a bug. Lowering is
// total over what the mutators produce: a lowering failure is a build
// failure on every configuration, so the campaigns would silently lose
// the mutant. CI runs this as a short -fuzztime smoke step next to
// FuzzLowerMatchesTree.
func FuzzCorpusMutate(f *testing.F) {
	f.Add(uint8(0), uint32(1), uint32(2), int64(3))
	f.Add(uint8(1), uint32(7), uint32(7), int64(11))
	f.Add(uint8(2), uint32(42), uint32(5), int64(-1))
	f.Add(uint8(3), uint32(9), uint32(1000), int64(99))
	modes := []generator.Mode{
		generator.ModeBasic, generator.ModeVector, generator.ModeBarrier, generator.ModeAll,
	}
	f.Fuzz(func(t *testing.T, mode uint8, seed, donorSeed uint32, mutSeed int64) {
		mk := generator.Generate(generator.Options{
			Mode: modes[int(mode)%len(modes)], Seed: int64(seed), MaxTotalThreads: 32,
		})
		dk := generator.Generate(generator.Options{
			Mode: modes[int(mode+1)%len(modes)], Seed: int64(donorSeed), MaxTotalThreads: 32,
		})
		c := New(4)
		m := c.Add(mk, 1)
		donor := c.Add(dk, 1)
		if m == nil {
			t.Skip("base kernel rejected (duplicate fingerprint)")
		}
		rng := rand.New(rand.NewSource(mutSeed))
		// Mutate repeatedly, feeding mutants back in as parents, so the
		// target also covers second-generation mutations of grown programs.
		parent := m
		for i := 0; i < 3; i++ {
			origin, mut, err := Mutate(rng, parent, donor)
			if err != nil {
				return
			}
			if origin == "" || mut == nil {
				t.Fatalf("Mutate returned empty origin %q / kernel %v without error", origin, mut)
			}
			if _, err := parser.Parse(mut.Src); err != nil {
				t.Fatalf("%s mutant stopped parsing: %v\n%s", origin, err, mut.Src)
			}
			// The full compile chain — sema, optimization, lowering —
			// must terminate, not necessarily succeed; but whatever sema
			// accepts must lower.
			cr := device.Reference().Compile(mut.Src, true)
			if cr.Outcome == device.BuildFailure && strings.HasPrefix(cr.Msg, "code: ") {
				t.Fatalf("%s mutant does not lower: %s\n%s", origin, cr.Msg, mut.Src)
			}
			if cr.Outcome == device.OK {
				next := c.Add(mut, 1)
				if next != nil {
					parent = next
				}
			}
		}
	})
}
