package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"path"
	"runtime"
	"strings"
)

// A traced run splits the campaign's CPU time and allocation by layer
// from the CPU and allocation profiles of the real code path: every
// sampled stack is charged to the layer its innermost clfuzz frame
// belongs to (layerOf). Nothing here depends on how the harness walks a
// campaign, so the split needs no copy of it.

// layers are the layers a profile sample can be charged to, in pipeline
// order. "runtime" takes the samples with no clfuzz frame on the stack:
// the background collector and the scheduler.
var layers = []string{
	"generator", "emi", "device.front", "device.back",
	"exec.seq", "exec.lockstep", "campaign.cache", "campaign",
	"oracle", "harness", "runtime",
}

// allocLayers report the heap they allocate; "exec" is both executor
// paths together.
var allocLayers = []string{"generator", "emi", "device.front", "device.back", "exec", "campaign.cache"}

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// lockstepRoot is the function every lockstep work-item goroutine starts
// in; its stacks have no other way back to the launch that spawned them.
const lockstepRoot = "clfuzz/internal/exec.(*Machine).runGroup.func"

// layerOf names the layer a sampled stack, innermost frame first, is
// spent in: that of the innermost clfuzz frame whose package belongs to
// a layer. The shared helper packages (ast, cltypes, lexer, parser, bugs,
// benchmarks, ...) belong to none, so a parse inside EMI derivation counts
// as emi and one behind the front-end cache as device.front. Runtime and
// library frames take the layer of the clfuzz code that called them, so
// allocation and GC assists count where they happen.
func layerOf(stack []frame) string {
	for i, f := range stack {
		pkg, ok := strings.CutPrefix(f.fn, "clfuzz/internal/")
		if !ok {
			continue
		}
		pkg, _, _ = strings.Cut(pkg, ".")
		switch pkg {
		case "generator", "emi", "oracle", "harness":
			return pkg
		case "sema", "opt", "code":
			return "device.back"
		case "device":
			if path.Base(f.file) == "frontend.go" {
				return "device.front"
			}
			return "device.back"
		case "exec":
			for _, outer := range stack[i:] {
				if strings.HasPrefix(outer.fn, lockstepRoot) {
					return "exec.lockstep"
				}
			}
			return "exec.seq"
		case "store":
			return "campaign.cache"
		case "campaign":
			if b := path.Base(f.file); b == "cache.go" || b == "disk.go" {
				return "campaign.cache"
			}
			return "campaign"
		}
	}
	return "runtime"
}

// allocLayer is the alloc_mb layer a stack's allocations count in.
func allocLayer(stack []frame) string {
	l := layerOf(stack)
	if strings.HasPrefix(l, "exec.") {
		return "exec"
	}
	return l
}

// cpuByLayer decodes a CPU profile written by runtime/pprof and returns
// the CPU nanoseconds it charges to each layer, and its sample count.
func cpuByLayer(prof []byte) (map[string]int64, int, error) {
	samples, err := decodeProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	ns := map[string]int64{}
	n := 0
	for _, s := range samples {
		// runtime/pprof's CPU sample values are [samples, nanoseconds],
		// summed over the samples of one stack.
		if len(s.values) != 2 {
			return nil, 0, errors.New("not a CPU profile")
		}
		ns[layerOf(s.stack)] += int64(s.values[1])
		n += int(s.values[0])
	}
	return ns, n, nil
}

// allocByLayer returns each allocation layer's share of the bytes the
// allocation profile has sampled since the process started. The profile
// lags by up to two collections, so callers collect twice first.
func allocByLayer() map[string]float64 {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		n = m
	}
	bytesBy := map[string]float64{}
	var total float64
	for _, r := range recs {
		var stack []frame
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, frame{f.Function, f.File})
			if !more {
				break
			}
		}
		bytesBy[allocLayer(stack)] += float64(r.AllocBytes)
		total += float64(r.AllocBytes)
	}
	share := map[string]float64{}
	for l, b := range bytesBy {
		if total > 0 {
			share[l] = b / total
		}
	}
	return share
}

// profSample is one sample of a decoded profile: its stack, innermost
// frame first, and its values.
type profSample struct {
	stack  []frame
	values []uint64
}

var errBadProfile = errors.New("malformed profile")

// decodeProfile reads a gzip-compressed profile in the pprof protobuf
// format (github.com/google/pprof/proto/profile.proto), as runtime/pprof
// writes it. It decodes only what layerOf needs: samples, locations,
// functions and the string table.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64][2]uint64{} // id -> name, file string indexes
		locs    = map[uint64][]uint64{}  // id -> function ids, innermost first
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, b)
				case 2: // value
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // id
					id = v
				case 4: // Line, inlined callees first
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name, file uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			funcs[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		out[i].values = s.values
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				out[i].stack = append(out[i].stack, frame{str(f[0]), str(f[1])})
			}
		}
	}
	return out, nil
}

// protoFields calls fn for each field of the protobuf message b with the
// field's number and its value: v for a varint, b for a length-delimited
// field. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errBadProfile
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return errBadProfile
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: v when the
// field came as one varint, the packed varints in b otherwise
// (runtime/pprof writes both forms).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
