package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants, and
// its speed drifts by 10–20% over minutes: a fixed program that is no part
// of clfuzz, timed between the items of a run, varies nearly as much as the
// items do, and the ratio of the two far less (bench/README.md has the
// numbers). So every run times that program, calibrate, between its items,
// and reports each wall time scaled by calibRef / the run's median
// calibration wall time, and each CPU time by calibRefCPU / its median
// calibration CPU time: seconds at one fixed host speed. A change to
// clfuzz moves scaled and raw times by the same factor, since calibrate
// shares no code with it.

// calibRef and calibRefCPU are the calibration's wall and CPU seconds
// that scaled times are expressed against: about the medians on the
// 2-vCPU host where the benchmark was defined, so scaled times there read
// as seconds. Calibrate's two goroutines take a little under twice its
// wall time in CPU.
const (
	calibRef    = 0.03
	calibRefCPU = 0.057
)

// calibrate runs a fixed mix of the work clfuzz does — allocating and
// walking a pointer tree, a switch-dispatched bytecode loop, map updates,
// hashing — on two goroutines at once, as the measured children run on
// GOMAXPROCS=2, and returns the wall and CPU seconds it took.
func calibrate() (wall, cpu float64) {
	// Every calibration starts from a collected heap, so the collector's
	// pacing does not depend on what the benchmark holds at the time.
	runtime.GC()
	cpu0, start := processCPU(), time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, 2)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = calibWork()
		}()
	}
	wg.Wait()
	calibSink = sums[0] ^ sums[1]
	return time.Since(start).Seconds(), processCPU() - cpu0
}

// calibSink keeps the compiler from discarding calibrate's work.
var calibSink uint64

type calibNode struct {
	left, right *calibNode
	val         uint64
}

func calibTree(depth int, v uint64) *calibNode {
	n := &calibNode{val: v}
	if depth > 0 {
		n.left = calibTree(depth-1, v*2)
		n.right = calibTree(depth-1, v*2+1)
	}
	return n
}

func (n *calibNode) sum() uint64 {
	if n == nil {
		return 0
	}
	return n.val + n.left.sum() + n.right.sum()
}

func calibWork() uint64 {
	var acc uint64
	for i := range 4 {
		acc += calibTree(14, uint64(i)).sum()
	}

	code := []byte{0, 1, 2, 3, 1, 0, 2, 4}
	x := uint64(1)
	for i := range 3_000_000 {
		switch code[i%len(code)] {
		case 0:
			x += uint64(i)
		case 1:
			x ^= x << 7
		case 2:
			x ^= x >> 9
		case 3:
			x *= 31
		default:
			x--
		}
	}
	acc += x

	m := map[uint64][]uint64{}
	for i := range uint64(150_000) {
		k := (i * 2654435761) % 20_000
		m[k] = append(m[k], i)
	}
	acc += uint64(len(m))

	buf := make([]byte, 1<<18)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for range 20 {
		s := sha256.Sum256(buf)
		acc += uint64(s[0])
		buf[0] = s[1]
	}
	return acc
}
