package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setups is how many times a run repeats its set-up; setup_s is their
// median.
const setups = 3

// minItems is the fewest measured items a run takes, however long they
// last; itemBudget stops a run that is still measuring well inside the
// three minutes a run may take.
const (
	minItems   = 3
	itemBudget = 120 * time.Second
)

// runner holds one benchmark run's working directory and its case tally:
// every child the run checks, and every set-up, is one attempted case.
type runner struct {
	w         workload
	seed      int64
	dir       string
	attempted int
	problems  []string
	// outputSHA is the sha256 of the output every measured item printed.
	outputSHA string
}

// note counts one attempted case and records it as failed when err is
// non-nil.
func (r *runner) note(err error) {
	r.attempted++
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// inputs is what a set-up prepares for the measured items.
type inputs struct {
	cltables string // the binary built from the checkout
	// store is the result store a warm workload's set-up filled, and want
	// the stdout of that filling run, which every warm rerun must repeat.
	store, want string
}

// measure runs the workload end to end: the untimed build, set-up, golden
// check, measured items until the seconds are spent, and an
// independent-interpreter check of the measured input. It runs calibrate
// before each set-up and after each item. The end-to-end times it returns
// are scaled to the reference host speed; the raw ones are returned under
// "raw." names, beside the calibration's wall and CPU times. Every failure
// is noted as a failed case; the summaries are nil when the build or a
// set-up failed or no item succeeded.
func (r *runner) measure(seconds int) map[string]summary {
	var setupTimes, calibs, calibCPU []float64
	var in inputs
	var err error
	if in.cltables, err = r.build(); err != nil {
		r.note(fmt.Errorf("build: %w", err))
		return nil
	}
	for i := range setups {
		c, cc := calibrate()
		calibs, calibCPU = append(calibs, c), append(calibCPU, cc)
		start := time.Now()
		in, err = r.setUp(i, in)
		if err != nil {
			err = fmt.Errorf("set-up %d: %w", i, err)
		}
		r.note(err)
		if err != nil {
			return nil
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	if r.w.warm {
		r.note(r.golden(in))
	}

	var walls, cpus, rss []float64
	want := in.want
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	hardStop := time.Now().Add(itemBudget)
	for n := 0; (n < minItems || time.Now().Before(deadline)) && time.Now().Before(hardStop); n++ {
		p, err := r.item(in, n)
		// Calibrating for a fifth of each item's time keeps the run's
		// calibration median as steady for long items as for short ones.
		for spent := 0.0; spent == 0 || spent < p.wall/5; {
			c, cc := calibrate()
			calibs = append(calibs, c)
			calibCPU = append(calibCPU, cc)
			spent += c
		}
		if err == nil {
			// Every run of one input must print the same bytes: a warm
			// rerun those of the run that filled its store, a cold run
			// those of the first cold run.
			switch {
			case want == "":
				want = p.stdout
			case p.stdout != want:
				err = fmt.Errorf("item %d: output differs from the first run of the same input", n)
			}
		}
		r.note(err)
		if err != nil {
			continue
		}
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rss = append(rss, p.rssMB)
	}
	if len(walls) == 0 {
		return nil
	}
	r.note(r.referenceCheck(in, want))
	r.outputSHA = sha(want)
	// Wall times scale by the calibration's wall time, CPU times by its
	// CPU time, which time-slicing by other tenants does not inflate.
	wallSpeed := calibRef / median(calibs)
	cpuSpeed := calibRefCPU / median(calibCPU)
	return map[string]summary{
		"wall_s":      summarize(walls).times(wallSpeed),
		"cpu_s":       summarize(cpus).times(cpuSpeed),
		"peak_rss_mb": summarize(rss),
		"setup_s":     summarize(setupTimes).times(wallSpeed),
		"raw.wall_s":  summarize(walls),
		"raw.cpu_s":   summarize(cpus),
		"raw.setup_s": summarize(setupTimes),
		"calib_s":     summarize(calibs),
		"calib_cpu_s": summarize(calibCPU),
	}
}

// build compiles cmd/cltables from the checkout into r.dir and returns
// the binary's path.
func (r *runner) build() (string, error) {
	bin := filepath.Join(r.dir, "bin", "cltables")
	_, err := run(os.Environ(), "go", "build", "-o", bin, "./cmd/cltables")
	return bin, err
}

// setUp runs set-up i, with the binary in in, and returns the measured
// items' inputs. A warm workload's set-up fills a fresh result store with
// one cold campaign, whose output every warm rerun must repeat. A cold
// workload's items need nothing but the binary, so its set-up is the check
// the binary must pass before it is measured: the golden campaign.
func (r *runner) setUp(i int, in inputs) (inputs, error) {
	if !r.w.warm {
		return in, r.golden(in)
	}
	in.store = setupStore(r.dir, i)
	p, err := run(childEnv(), in.cltables, append(r.w.kind.args(r.seed), "-store", in.store)...)
	if err != nil {
		return in, err
	}
	in.want = p.stdout
	return in, storeCheck(p.stderr, false)
}

// setupStore is the result store warm set-up i fills in the run directory
// dir.
func setupStore(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("setup%d", i), "store")
}

// item runs one measured item: a cold campaign into an empty store, or a
// warm rerun against the filled one.
func (r *runner) item(in inputs, n int) (proc, error) {
	store := in.store
	if !r.w.warm {
		store = filepath.Join(r.dir, fmt.Sprintf("store%d", n))
		defer os.RemoveAll(store)
	}
	p, err := run(childEnv(), in.cltables, append(r.w.kind.args(r.seed), "-store", store)...)
	if err == nil {
		if err = storeCheck(p.stderr, r.w.warm); err != nil {
			err = fmt.Errorf("item %d: %w", n, err)
		}
	}
	return p, err
}

// golden runs the campaign at goldenSeed, without a store, and compares
// its output with bench/golden.
func (r *runner) golden(in inputs) error {
	want, err := os.ReadFile(filepath.Join("bench", "golden", r.w.kind.golden()))
	if err != nil {
		return err
	}
	p, err := run(childEnv(), in.cltables, r.w.kind.args(goldenSeed)...)
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	if p.stdout != string(want) {
		return fmt.Errorf("golden run: output at seed %d differs from bench/golden/%s", goldenSeed, r.w.kind.golden())
	}
	return nil
}

// referenceCheck reruns the measured campaign, without a store, on the
// tree-walking reference interpreter (CLFUZZ_ENGINE=tree), which shares no
// execution code with the VM, and requires the measured output byte for
// byte.
func (r *runner) referenceCheck(in inputs, want string) error {
	p, err := run(childEnv("CLFUZZ_ENGINE=tree"), in.cltables, r.w.kind.args(r.seed)...)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if p.stdout != want {
		return errors.New("reference run: tree-engine output differs from the measured output")
	}
	return nil
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// storeCheck verifies cltables' store summary line: a cold run must write
// without errors or corrupt reads; a warm rerun must be served entirely
// from disk, writing nothing.
func storeCheck(stderr string, warm bool) error {
	var line string
	for _, l := range strings.Split(stderr, "\n") {
		if strings.Contains(l, "store summary:") {
			line = l
		}
	}
	if line == "" {
		return errors.New("no store summary line")
	}
	f := map[string]int64{}
	for _, field := range strings.Fields(line) {
		if k, v, ok := strings.Cut(field, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				f[k] = n
			}
		}
	}
	bad := f["corrupt"] != 0 || f["write-errs"] != 0
	if warm {
		bad = bad || f["disk-misses"] != 0 || f["writes"] != 0 || f["disk-hits"] == 0
	} else {
		bad = bad || f["writes"] == 0
	}
	if bad {
		return fmt.Errorf("store check failed: %s", strings.TrimSpace(line))
	}
	return nil
}
