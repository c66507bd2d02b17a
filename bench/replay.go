package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"clfuzz/internal/campaign"
	"clfuzz/internal/harness"
)

// profiledMemRate is the allocation profile's sampling interval, in
// bytes, in a profiled replay: fine enough for a steady per-layer split
// of a sub-second campaign.
const profiledMemRate = 64 << 10

// replayReport is what a replay child prints: the campaign's output and
// cost and, when profiled, its split by layer.
type replayReport struct {
	Output string  `json:"output"`
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`

	LayerCPU map[string]int64   `json:"layer_cpu_ns,omitempty"`
	Samples  int                `json:"samples,omitempty"`
	AllocMB  map[string]float64 `json:"alloc_mb,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
	StoreMB  float64            `json:"store_mb,omitempty"`
}

// replayHere is the child half of a trace run: it runs the campaign of
// the item prepared in dir in this process, as cltables does, against
// the filled store for a warm workload or a fresh one for a cold one, and
// prints a replayReport. A profiled replay also writes its CPU profile to
// traceDir.
func replayHere(w workload, seed int64, dir string, profiled bool, traceDir string) error {
	if profiled {
		runtime.MemProfileRate = profiledMemRate
	}
	store := setupStore(dir, 0)
	if !w.warm {
		var err error
		if store, err = os.MkdirTemp(dir, "replay-store-"); err != nil {
			return err
		}
	}
	if _, err := campaign.EnableStore(store); err != nil {
		return err
	}
	rep, prof, err := profileCampaign(w.kind.params(seed), profiled)
	if err != nil {
		return err
	}
	if profiled {
		rep.StoreMB = dirMB(store)
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, w.name+".cpu.pprof")
		if err := os.WriteFile(path, prof, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bench: CPU profile written to", path)
	}
	printJSON(rep)
	return nil
}

// profileCampaign runs campaign p in this process the way cltables does —
// harness.RenderCampaign on campaign.Default, with whatever store the
// caller attached — and reports its output and cost. Profiled, it also
// charges the campaign's CPU time and allocation to layers, reads the
// counters it moved, and returns the CPU profile.
func profileCampaign(p harness.Params, profiled bool) (replayReport, []byte, error) {
	var rep replayReport
	var prof bytes.Buffer
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	alloc0 := allocs[0].Value.Uint64()
	before := readCounters(campaign.Default)
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, nil, err
		}
	}
	cpu0, start := processCPU(), time.Now()
	out, err := harness.RenderCampaign(context.Background(), p)
	rep.Wall, rep.CPU = time.Since(start).Seconds(), processCPU()-cpu0
	if profiled {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return rep, nil, err
	}
	rep.Output = out + "\n" // cltables prints the render with Println
	if !profiled {
		return rep, nil, nil
	}
	rep.Counts = readCounters(campaign.Default).sub(before).counts()
	metrics.Read(allocs)
	allocMB := float64(allocs[0].Value.Uint64()-alloc0) / (1 << 20)
	runtime.GC()
	runtime.GC()
	rep.AllocMB = map[string]float64{}
	for l, share := range allocByLayer() {
		rep.AllocMB[l] = share * allocMB
	}
	rep.LayerCPU, rep.Samples, err = cpuByLayer(prof.Bytes())
	return rep, prof.Bytes(), err
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
