package main

import (
	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/store"
)

// counters is one snapshot of every program counter the benchmark reads.
// This file is the only place the benchmark reads them, and it uses only
// accessors that are meant to outlive the fuel and dispatch axes: the
// engine and lowering counters, the cache and store Stats, the campaign
// engine's Counters and the launch pool's Counters.
type counters struct {
	vmLaunches, treeLaunches, vmInstrs int64
	lowered, fellBack                  uint64
	frontHits, frontMisses             uint64
	backHits, backMisses               uint64
	resultHits, diskHits               uint64
	cases                              int64
	store                              store.Stats
	poolMisses                         uint64
}

// readCounters snapshots the process-wide counters and those of eng,
// whose front cache, result cache, attached store and launch pool (the
// process default when eng has none) it reads.
func readCounters(eng *campaign.Engine) counters {
	var c counters
	c.vmLaunches, c.treeLaunches, c.vmInstrs = exec.EngineCounters()
	c.lowered, c.fellBack = device.LowerStats()
	c.frontHits, c.frontMisses, _ = eng.Front.Stats()
	c.backHits, c.backMisses, _ = device.DefaultBackCache.Stats()
	c.resultHits, _, _ = eng.Results.Stats()
	c.diskHits, _ = eng.Results.DiskStats()
	c.cases, _ = eng.Counters()
	if s := eng.Results.Disk(); s != nil {
		c.store = s.Stats()
	}
	pool := eng.Pool
	if pool == nil {
		pool = exec.DefaultPool()
	}
	_, c.poolMisses = pool.Counters()
	return c
}

// sub returns the counts accumulated between snapshot o and c.
func (c counters) sub(o counters) counters {
	return counters{
		vmLaunches:   c.vmLaunches - o.vmLaunches,
		treeLaunches: c.treeLaunches - o.treeLaunches,
		vmInstrs:     c.vmInstrs - o.vmInstrs,
		lowered:      c.lowered - o.lowered,
		fellBack:     c.fellBack - o.fellBack,
		frontHits:    c.frontHits - o.frontHits,
		frontMisses:  c.frontMisses - o.frontMisses,
		backHits:     c.backHits - o.backHits,
		backMisses:   c.backMisses - o.backMisses,
		resultHits:   c.resultHits - o.resultHits,
		diskHits:     c.diskHits - o.diskHits,
		cases:        c.cases - o.cases,
		store: store.Stats{
			Hits:      c.store.Hits - o.store.Hits,
			Misses:    c.store.Misses - o.store.Misses,
			Corrupt:   c.store.Corrupt - o.store.Corrupt,
			Writes:    c.store.Writes - o.store.Writes,
			WriteErrs: c.store.WriteErrs - o.store.WriteErrs,
		},
		poolMisses: c.poolMisses - o.poolMisses,
	}
}

// counts names the counters as per-layer metrics, all in unit count.
func (c counters) counts() map[string]float64 {
	return map[string]float64{
		"device.front.calls":       float64(c.frontHits + c.frontMisses),
		"device.front.misses":      float64(c.frontMisses),
		"device.back.calls":        float64(c.backHits + c.backMisses),
		"device.back.misses":       float64(c.backMisses),
		"device.lower.programs":    float64(c.lowered),
		"device.lower.fallbacks":   float64(c.fellBack),
		"campaign.cases":           float64(c.cases),
		"campaign.cache.hits":      float64(c.resultHits),
		"campaign.cache.disk_hits": float64(c.diskHits),
		"exec.launches":            float64(c.vmLaunches + c.treeLaunches),
		"exec.vm_instrs":           float64(c.vmInstrs),
		"exec.pool.misses":         float64(c.poolMisses),
		"store.writes":             float64(c.store.Writes),
		"store.hits":               float64(c.store.Hits),
		"store.misses":             float64(c.store.Misses),
		"store.corrupt":            float64(c.store.Corrupt),
	}
}
