package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"
)

// traceRun prepares one item like an end-to-end run and takes the real
// binary's output for it as the reference. Then, until the seconds are
// spent (at least once), it replays the item in two fresh child processes
// of this program, unprofiled and profiled, and checks that both print
// the reference. It reports the per-layer split summed over the profiled
// replays and averaged per replay, the counters of the first one, and
// the profiling overhead: the profiled replays' median CPU time over the
// unprofiled ones'. Failures are noted as failed cases; the metrics are
// nil when no profiled replay finished.
func (r *runner) traceRun(seconds int, traceDir string) map[string]metric {
	var in inputs
	var err error
	if in.cltables, err = r.build(); err != nil {
		r.note(fmt.Errorf("build: %w", err))
		return nil
	}
	// The reference is the output of a warm workload's store fill, or of
	// one cold run.
	var want string
	if r.w.warm {
		if in, err = r.setUp(0, in); err == nil {
			want = in.want
		}
	} else {
		var p proc
		if p, err = run(childEnv(), in.cltables, r.w.kind.args(r.seed)...); err == nil {
			want = p.stdout
		}
	}
	if err != nil {
		r.note(fmt.Errorf("reference run: %w", err))
		return nil
	}
	r.outputSHA = sha(want)

	var (
		n        int // profiled replays
		samples  int
		layerNS  = map[string]int64{}
		allocMB  = map[string]float64{}
		counts   map[string]float64
		storeMB  float64
		walls    []float64
		cpu      = map[bool][]float64{}
		deadline = time.Now().Add(time.Duration(seconds) * time.Second)
	)
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		for _, profiled := range []bool{false, true} {
			rep, err := r.replayChild(profiled, traceDir)
			if err == nil && rep.Output != want {
				err = errors.New("replay output differs from the real binary's")
			}
			r.note(err)
			if err != nil {
				continue
			}
			cpu[profiled] = append(cpu[profiled], rep.CPU)
			if !profiled {
				continue
			}
			n++
			walls = append(walls, rep.Wall)
			samples += rep.Samples
			for l, ns := range rep.LayerCPU {
				layerNS[l] += ns
			}
			for l, mb := range rep.AllocMB {
				allocMB[l] += mb
			}
			if counts == nil {
				counts, storeMB = rep.Counts, rep.StoreMB
			}
		}
	}
	if n == 0 {
		return nil
	}

	m := map[string]metric{}
	perReplay := func(ns int64) float64 { return float64(ns) / 1e9 / float64(n) }
	for _, l := range layers {
		m[l+".cpu_s"] = metric{perReplay(layerNS[l]), "s"}
	}
	for _, l := range allocLayers {
		m[l+".alloc_mb"] = metric{allocMB[l] / float64(n), "MB"}
	}
	for name, v := range counts {
		m[name] = metric{v, "count"}
	}
	rate := 0.0
	if s := perReplay(layerNS["exec.seq"] + layerNS["exec.lockstep"]); s > 0 {
		rate = counts["exec.vm_instrs"] / s / 1e6
	}
	m["exec.minstr_per_s"] = metric{rate, "Minstr/s"}
	m["store.mb"] = metric{storeMB, "MB"}
	m["trace.wall_s"] = metric{median(walls), "s"}
	m["trace.cpu_s"] = metric{median(cpu[true]), "s"}
	m["trace.samples"] = metric{float64(samples), "count"}
	overhead := 0.0
	if u := median(cpu[false]); u > 0 {
		overhead = 100 * (median(cpu[true]) - u) / u
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{0, v.Unit}
		}
	}
	return m
}

// replayChild replays the item prepared in the run's directory in a fresh
// child process of this program.
func (r *runner) replayChild(profiled bool, traceDir string) (replayReport, error) {
	var rep replayReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	trace := "0"
	if profiled {
		trace = "1"
	}
	p, err := run(childEnv(), exe, "--workload", r.w.name, "--seed", strconv.FormatInt(r.seed, 10),
		"--trace", trace, "--trace-dir", traceDir, "--replay", r.dir)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal([]byte(p.stdout), &rep)
}
