// Package store is the disk-backed tier of the campaign result cache: a
// content-addressed blob store that any number of processes — shard
// runs, warm reruns — share through one directory, with no coordination
// beyond each handle appending to a file of its own.
//
// The store maps a 64-bit address (the caller folds its full logical key
// into it) to an opaque payload. A handle appends records to its own
// segment file, which it creates on its first Put, so a handle that only
// reads leaves no file. A record is a magic string, the address, an
// explicit length, an FNV-1a checksum and the payload, written with one
// write(2). Segment names sort in creation order. Open indexes every
// segment in that order, reading headers only, and a later record for an
// address wins over an earlier one, in a newer segment or further down
// the same one: that is how a damaged entry heals. Get reads a record
// with one pread and re-verifies its framing, so truncated, torn or
// otherwise damaged records are reported as misses — corruption costs a
// re-execution, never an error or a wrong result. A failed write retires
// the handle's segment, so a torn record is only ever the last record of
// its segment.
//
// The index is built at Open only. A handle does not see what other
// handles append after it opened: processes that share a directory
// mid-campaign (concurrent -shard runs) each re-execute what their
// siblings stored meanwhile, and replay it all on the next run.
//
// The store is bounded. A handle moves to a fresh segment before a
// record would take its segment past segmentBytes, and at Open and at
// each such rotation whole segments are deleted, oldest first, while the
// directory's segments hold more than budgetBytes. A handle closes the
// segments it finds deleted, by itself or another process, and forgets
// their records, so their disk space is freed.
//
// Address collisions are the caller's problem by design: payloads carry
// the full logical key, and the campaign layer verifies it (plus the
// canonical source text) on every read, exactly as the in-memory tiers
// guard their 64-bit hashes.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// magic identifies (and versions) the record framing. Bump the digit to
// orphan every existing record on a framing change.
const magic = "CLFZSTR2"

// A record header is the magic, then the little-endian address, payload
// length and payload checksum; addrEnd is where the address ends.
const (
	addrEnd   = len(magic) + 8
	headerLen = addrEnd + 8 + 8
)

// maxEntry bounds how large an entry the reader will believe. Campaign
// payloads are a kernel source plus a result vector — a few hundred KB at
// the extreme — so anything claiming more is framing corruption, not data.
const maxEntry = 64 << 20

// segmentBytes is the size at which a handle moves to a fresh segment,
// and budgetBytes bounds the bytes of every segment in a directory
// together; a cold Table 3 campaign writes about 4 MB.
const (
	segmentBytes = 64 << 20
	budgetBytes  = 1 << 30
)

// segmentExt marks segment files; anything else in the directory, such
// as an older store's fan-out directories, is neither read nor deleted.
const segmentExt = ".seg"

// segmentSeq numbers the segments this process creates, so names stay
// unique and ordered within one timestamp.
var segmentSeq atomic.Uint64

// Stats is a snapshot of the store's cumulative counters.
type Stats struct {
	// Hits counts Gets that returned a verified payload.
	Hits uint64
	// Misses counts Gets whose address has no record in the index.
	Misses uint64
	// Corrupt counts Gets that found a record but rejected it
	// (truncation, bad magic, address, length or checksum mismatch).
	// Corrupt records are misses to the caller.
	Corrupt uint64
	// Writes counts records appended whole.
	Writes uint64
	// WriteErrs counts Put attempts that failed (disk full, permissions);
	// the store stays usable and the entry is simply not persisted.
	WriteErrs uint64
}

// segment is one open segment file.
type segment struct {
	name string
	f    *os.File
}

// location is where an address's latest record starts, and the payload
// length its header gave when it was indexed.
type location struct {
	seg *segment
	off int64
	n   uint64
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use by multiple goroutines, and any number of handles in
// any number of processes may share a directory. A handle keeps its
// segment files open until it finds them deleted; there is no Close, as
// a process holds its handle until it exits.
type Store struct {
	dir            string
	segMax, budget int64

	// mu guards the index and the segments: Get holds it shared for its
	// lookup and read, Put exclusively for its append.
	mu    sync.RWMutex
	index map[uint64]location
	// segs holds every segment the handle has open, by name.
	segs map[string]*segment
	// active is the segment Put appends to, nil until the next Put opens
	// one; end is its size, which the handle tracks as its only writer.
	active *segment
	end    int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	corrupt   atomic.Uint64
	writes    atomic.Uint64
	writeErrs atomic.Uint64
}

// Open creates (if needed) and opens a store directory: it deletes the
// oldest segments while the directory exceeds its budget, then indexes
// the rest.
func Open(dir string) (*Store, error) {
	return open(dir, segmentBytes, budgetBytes)
}

func open(dir string, segMax, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, segMax: segMax, budget: budget,
		index: map[uint64]location{}, segs: map[string]*segment{}}
	names, err := s.trim()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReaderSize(nil, 64<<10)
	for _, name := range names {
		s.scan(name, br)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checksum is FNV-1a over the payload, the same family the campaign's
// launch digests use.
func checksum(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// record frames payload as the record for addr.
func record(addr uint64, payload []byte) []byte {
	rec := make([]byte, headerLen+len(payload))
	copy(rec, magic)
	binary.LittleEndian.PutUint64(rec[len(magic):], addr)
	binary.LittleEndian.PutUint64(rec[addrEnd:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(rec[addrEnd+8:], checksum(payload))
	copy(rec[headerLen:], payload)
	return rec
}

// scan opens the named segment and indexes its records, reading their
// headers through br and skipping their payloads. A record enters
// the index once its magic and address are readable, so one cut short
// after its address is a corrupt read for Get, not a silent loss. The
// scan stops at the first bad magic or implausible length, after which
// nothing in the segment can be framed.
func (s *Store) scan(name string, br *bufio.Reader) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return // deleted meanwhile, or unreadable: its records are misses
	}
	seg := &segment{name: name, f: f}
	s.segs[name] = seg
	br.Reset(f)
	var hdr [headerLen]byte
	for off := int64(0); ; {
		k, _ := io.ReadFull(br, hdr[:])
		if k < addrEnd {
			return
		}
		var n uint64
		plausible := k == headerLen
		if plausible {
			n = binary.LittleEndian.Uint64(hdr[addrEnd:])
			plausible = n <= maxEntry
		}
		if !plausible {
			// Get reads a bare header: a short read, or a length that
			// disagrees with 0.
			n = 0
		}
		s.index[binary.LittleEndian.Uint64(hdr[len(magic):])] = location{seg, off, n}
		if !plausible || string(hdr[:len(magic)]) != magic {
			return
		}
		if d, _ := br.Discard(int(n)); uint64(d) < n {
			return
		}
		off += int64(headerLen) + int64(n)
	}
}

// trim deletes whole segments, oldest first, while the directory's
// segments hold more than the budget, then closes every segment the
// handle has open that is no longer in the directory — deleted here or
// by another handle — and forgets its records. It returns the names of
// the segments left, oldest first. It runs only while the handle has no
// active segment, so it never deletes one.
func (s *Store) trim() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	var sizes []int64
	var total int64
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), segmentExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted meanwhile
		}
		names = append(names, e.Name())
		sizes = append(sizes, info.Size())
		total += info.Size()
	}
	for len(names) > 0 && total > s.budget {
		// A concurrent trim may have removed it first; either way it is gone.
		_ = os.Remove(filepath.Join(s.dir, names[0]))
		total -= sizes[0]
		names, sizes = names[1:], sizes[1:]
	}
	left := make(map[string]bool, len(names))
	for _, name := range names {
		left[name] = true
	}
	gone := map[*segment]bool{}
	for name, seg := range s.segs {
		if !left[name] {
			seg.f.Close()
			delete(s.segs, name)
			gone[seg] = true
		}
	}
	if len(gone) > 0 {
		for addr, l := range s.index {
			if gone[l.seg] {
				delete(s.index, addr)
			}
		}
	}
	return names, nil
}

// Get returns the payload stored at addr. An address with no record is
// (nil, false); a damaged record is (nil, false) plus a corruption count
// — the caller re-executes and may re-Put, healing the entry.
func (s *Store) Get(addr uint64) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.index[addr]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	rec := make([]byte, headerLen+int(l.n))
	if _, err := l.seg.f.ReadAt(rec, l.off); err != nil ||
		string(rec[:len(magic)]) != magic ||
		binary.LittleEndian.Uint64(rec[len(magic):]) != addr ||
		binary.LittleEndian.Uint64(rec[addrEnd:]) != l.n ||
		binary.LittleEndian.Uint64(rec[addrEnd+8:]) != checksum(rec[headerLen:]) {
		s.corrupt.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rec[headerLen:], true
}

// Put appends payload as the record for addr to the handle's segment.
// Failures are counted and swallowed: a store that cannot write degrades
// to a cache that cannot persist, never into an error path.
func (s *Store) Put(addr uint64, payload []byte) {
	rec := record(addr, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil && s.end+int64(len(rec)) > s.segMax {
		s.active = nil
		// The rotation's trim is best-effort: an unreadable directory
		// leaves the store over budget until the next one.
		_, _ = s.trim()
	}
	if s.active == nil && s.create() != nil {
		s.writeErrs.Add(1)
		return
	}
	if _, err := s.active.f.Write(rec); err != nil {
		// The write may have left part of the record behind; retiring
		// the segment keeps a torn record its segment's last.
		s.active = nil
		s.writeErrs.Add(1)
		return
	}
	s.index[addr] = location{s.active, s.end, uint64(len(payload))}
	s.end += int64(len(rec))
	s.writes.Add(1)
}

// create opens a fresh segment as the handle's active one. Its name is
// a zero-padded timestamp, the pid and the process's segment sequence
// number, so names sort in creation order and never collide.
func (s *Store) create() error {
	name := fmt.Sprintf("%020d-%010d-%010d%s", time.Now().UnixNano(), os.Getpid(), segmentSeq.Add(1), segmentExt)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.active = &segment{name: name, f: f}
	s.segs[name] = s.active
	s.end = 0
	return nil
}

// Stats returns a snapshot of the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Writes:    s.writes.Load(),
		WriteErrs: s.writeErrs.Load(),
	}
}
