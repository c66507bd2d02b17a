package campaign

import (
	"bytes"
	"encoding/json"
	"os"

	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/store"
)

// EnableStore opens the disk result store at dir — or at $CLFUZZ_STORE
// when dir is empty — and attaches it beneath the default engine's
// result cache, which is how the four CLI tools resolve their -store
// flag. An empty resolved directory leaves the cache memory-only and
// returns (nil, nil).
func EnableStore(dir string) (*store.Store, error) {
	if dir == "" {
		dir = os.Getenv("CLFUZZ_STORE")
	}
	if dir == "" {
		return nil, nil
	}
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	Default.Results.AttachStore(s)
	return s, nil
}

// diskEntry is the JSON header of the payload persisted per result: the
// semantics tag, which names the engine, and every other field of the
// logical key (so a 64-bit address collision or a stale tag is detected
// and treated as a miss), the unit result, and the launch's coverage
// delta for covered entries. Compile marks a compile outcome (build
// failure or compile timeout). It is omitted when false, so a run
// result's payload has the same bytes whether or not its store also
// holds compile outcomes.
//
// The payload is the header, a newline, and the canonical source's raw
// bytes, which a read compares with the lookup's source byte for byte
// (the same collision guard the in-memory tiers use). json.Marshal never
// emits a raw newline, so the first one ends the header, and the source
// is neither escaped nor decoded. A payload with no newline, written
// before the source left the JSON, is a miss.
type diskEntry struct {
	Sem     string `json:"sem"`
	SrcHash uint64 `json:"srcHash"`
	LvlKey  uint64 `json:"lvlKey"`
	EffOpt  bool   `json:"effOpt"`
	Digest  uint64 `json:"digest"`
	Cover   bool   `json:"cover"`

	Outcome int      `json:"outcome"`
	Msg     string   `json:"msg,omitempty"`
	Output  []uint64 `json:"output,omitempty"`
	Compile bool     `json:"compile,omitempty"`

	CovEdges []uint32 `json:"covEdges,omitempty"`
	CovSites []uint64 `json:"covSites,omitempty"`
}

// lvlDigest folds the full defect model into one word. The struct's
// fields — divisors, flag set, fuel factor — are the entire model, so
// equal digests with equal source guards mean interchangeable results
// (and the digest is only a lookup aid: the payload's fields are
// re-verified on every read).
func (k resultKey) lvlDigest() uint64 {
	d := digest{h: 14695981039346656037}
	d.word(uint64(k.lvl.Defects))
	d.word(k.lvl.CrashDiv)
	d.word(k.lvl.CrashBarrierDiv)
	d.word(k.lvl.BFDiv)
	d.word(k.lvl.SlowDiv)
	d.word(k.lvl.WrongDiv)
	d.word(k.lvl.VecWrongDiv)
	// FuelFactor is a small rational in every configuration; scale to
	// fixed point so the digest does not depend on float formatting.
	d.word(uint64(k.lvl.FuelFactor * 1e6))
	return d.h
}

// addr folds the key and the semantics tag into the store's 64-bit
// content address.
func (k resultKey) addr(sem string) uint64 {
	d := digest{h: 14695981039346656037}
	d.str(sem)
	d.word(k.srcHash)
	d.word(k.lvlDigest())
	if k.effOpt {
		d.word(1)
	}
	d.word(k.digest)
	if k.cover {
		d.word(1)
	}
	return d.h
}

// AttachStore wires a disk tier beneath the in-memory result cache.
// Memory misses fall through to the store; disk hits are added to the
// memory tier, and memory-tier inserts are written through. Safe to
// call once before the cache is shared; nil detaches.
func (rc *ResultCache) AttachStore(s *store.Store) {
	rc.disk = s
}

// Disk returns the attached store, nil when the cache is memory-only.
func (rc *ResultCache) Disk() *store.Store { return rc.disk }

// diskGet probes the disk tier for the key. Any mismatch — no header,
// decode failure, stale semantics tag, address collision on another key,
// source collision on another text — is a miss; the blob-level
// corruption counting already happened inside store.Get.
func (rc *ResultCache) diskGet(k resultKey, src string) (resultEntry, bool) {
	sem := exec.SemanticsTag(k.vm)
	payload, ok := rc.disk.Get(k.addr(sem))
	if !ok {
		return resultEntry{}, false
	}
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || string(payload[nl+1:]) != src {
		return resultEntry{}, false
	}
	var e diskEntry
	if json.Unmarshal(payload[:nl], &e) != nil {
		return resultEntry{}, false
	}
	if e.Sem != sem || e.SrcHash != k.srcHash || e.LvlKey != k.lvlDigest() ||
		e.EffOpt != k.effOpt || e.Digest != k.digest || e.Cover != k.cover {
		return resultEntry{}, false
	}
	r := resultEntry{res: UnitResult{Outcome: device.Outcome(e.Outcome), Msg: e.Msg, Output: e.Output, Compile: e.Compile}}
	r.cov.edges = e.CovEdges
	if len(e.CovSites) == len(r.cov.sites) {
		copy(r.cov.sites[:], e.CovSites)
	}
	return r, true
}

// diskPut writes one entry through to the store.
func (rc *ResultCache) diskPut(k resultKey, src string, r resultEntry) {
	sem := exec.SemanticsTag(k.vm)
	e := diskEntry{
		Sem:     sem,
		SrcHash: k.srcHash,
		LvlKey:  k.lvlDigest(),
		EffOpt:  k.effOpt,
		Digest:  k.digest,
		Cover:   k.cover,
		Outcome: int(r.res.Outcome),
		Msg:     r.res.Msg,
		Output:  r.res.Output,
		Compile: r.res.Compile,
	}
	if k.cover {
		e.CovEdges = r.cov.edges
		e.CovSites = r.cov.sites[:]
	}
	header, err := json.Marshal(e)
	if err != nil {
		return
	}
	rc.disk.Put(k.addr(sem), append(append(header, '\n'), src...))
}
