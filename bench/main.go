// Command bench is clfuzz's benchmark. Each run measures one workload
// for a fixed number of seconds, checks the outputs, and prints one JSON
// result as the last line of standard output. It runs from the
// repository root, normally through bench/run.sh:
//
//	bash bench/run.sh --workload t3-cold --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the run times fresh child processes of the real
// binaries, built from the checkout, with tracing off: wall_s, cpu_s,
// peak_rss_mb per measured item (medians) and setup_s, the times scaled to
// a reference host speed (calib.go). With --trace 1 it runs the same
// campaign in child processes of this program under the CPU and
// allocation profilers, and reports how its time, allocations and counts
// split by layer (layers.go); one CPU profile is kept as
// --trace-dir/<workload>.cpu.pprof. bench/README.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: t3-cold or t4-warm")
	seed := flag.Int64("seed", goldenSeed, "benchmark seed; the workload's inputs derive from it")
	seconds := flag.Int("seconds", 35, "how long to measure")
	trace := flag.Int("trace", 0, "1 profiles the campaign in-process and reports per-layer metrics instead of timing child processes")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where --trace 1 writes <workload>.cpu.pprof")
	replayDir := flag.String("replay", "", "internal: run the item prepared in this directory in this process (profiled with --trace 1) and print its report")
	flag.Parse()
	w, err := workloadNamed(*name)
	if err != nil {
		fatal(err)
	}
	if *replayDir != "" {
		if err := replayHere(w, *seed, *replayDir, *trace == 1, *traceDir); err != nil {
			fatal(err)
		}
		return
	}

	fp := fingerprint()
	dir, err := os.MkdirTemp(".bench_build", "run-"+w.name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	r := &runner{w: w, seed: *seed, dir: dir}
	// Every failure from here on is a failed case: the run still prints
	// its result, with whatever metrics it measured, and exits 1.
	metrics := map[string]metric{}
	var detail map[string]summary
	if *trace == 1 {
		if m := r.traceRun(*seconds, *traceDir); m != nil {
			metrics = m
		}
	} else if detail = r.measure(*seconds); detail != nil {
		for k, unit := range endToEndUnits {
			metrics[k] = metric{Value: detail[k].Median, Unit: unit}
		}
	}
	fp.finish()
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    len(r.problems),
		Metrics:   metrics,
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	printJSON(map[string]any{"workload": w.name, "seed": *seed, "host": fp, "detail": detail, "output_sha256": r.outputSHA})
	printJSON(res)
	if !res.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

var endToEndUnits = map[string]string{"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// fatal ends a run that cannot start — a usage error, or no working
// directory — without a result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// processCPU is this process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// host is the machine fingerprint printed beside every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"child_gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit,omitempty"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
	// GoLines counts the program's non-test Go lines (the benchmark's own
	// excluded), for information only.
	GoLines  int      `json:"non_test_go_lines"`
	Warnings []string `json:"warnings,omitempty"`
}

func fingerprint() *host {
	h := &host{NProc: runtime.NumCPU(), GOMAXPROCS: 2, Go: runtime.Version(), LoadStart: loadavg()}
	if wd, err := os.Getwd(); err == nil {
		// The ceiling keeps git from looking for a repository above the
		// checkout.
		git := exec.Command("git", "rev-parse", "HEAD")
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := git.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if f := strings.Fields(h.LoadStart); len(f) > 0 {
		if l, err := strconv.ParseFloat(f[0], 64); err == nil && l > float64(h.NProc) {
			h.Warnings = append(h.Warnings, fmt.Sprintf("load %.2f at start exceeds %d CPUs: timings are contended", l, h.NProc))
		}
	}
	h.GoLines = goLines(".")
	for _, w := range h.Warnings {
		fmt.Fprintln(os.Stderr, "bench: warning:", w)
	}
	return h
}

func (h *host) finish() { h.LoadEnd = loadavg() }

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// goLines counts lines of non-test Go files under root, skipping the
// benchmark and its build directory.
func goLines(root string) int {
	n := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == "bench" || path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if b, err := os.ReadFile(path); err == nil {
			n += strings.Count(string(b), "\n")
		}
		return nil
	})
	return n
}
