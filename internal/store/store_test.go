package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// segments returns the paths of the segment files in dir, oldest first.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// onlySegment returns the path of dir's one segment file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want exactly one", segs)
	}
	return segs[0]
}

// damage rewrites the file at path as f of its bytes.
func damage(t *testing.T, path string, f func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"result":"forty-two"}`)
	s.Put(0xdeadbeefcafe0123, payload)
	got, ok := s.Get(0xdeadbeefcafe0123)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 || st.WriteErrs != 0 {
		t.Fatalf("stats %+v after one put and one hit", st)
	}
}

func TestMissingEntryIsMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, ok := s.Get(7); ok {
		t.Fatal("empty store returned a hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want one clean miss", st)
	}
}

// TestSecondProcessView reopens the directory through a fresh handle —
// the cross-process sharing contract reduced to one process: entries
// written by one handle are served, verified, by another.
func TestSecondProcessView(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	w.Put(99, []byte("written by the first process"))
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get(99)
	if !ok || string(got) != "written by the first process" {
		t.Fatalf("fresh handle Get = %q, %v", got, ok)
	}
}

// TestCorruptEntryIsMiss damages a stored record inside its segment
// every way the framing can detect — truncation (including into the
// header), bad magic, a flipped payload byte, an inflated length — and
// requires each read through a fresh handle to be a miss, never an error
// or a wrong payload, that a re-Put heals. Damage that leaves the
// record's address readable is a counted corrupt read; a segment
// truncated to nothing holds no record, so its read is a clean miss.
func TestCorruptEntryIsMiss(t *testing.T) {
	damages := []struct {
		name    string
		f       func(raw []byte) []byte
		corrupt uint64
	}{
		{"truncated payload", func(raw []byte) []byte { return raw[:len(raw)-3] }, 1},
		{"truncated header", func(raw []byte) []byte { return raw[:headerLen-2] }, 1},
		{"empty file", func(raw []byte) []byte { return nil }, 0},
		{"bad magic", func(raw []byte) []byte { raw[0] ^= 0xff; return raw }, 1},
		{"flipped payload byte", func(raw []byte) []byte { raw[headerLen] ^= 1; return raw }, 1},
		{"inflated length", func(raw []byte) []byte { raw[addrEnd] ^= 0x40; return raw }, 1},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := Open(dir)
			const addr = 0x0102030405060708
			w.Put(addr, []byte("precious bytes"))
			damage(t, onlySegment(t, dir), d.f)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(addr); ok {
				t.Fatalf("damaged entry served as a hit: %q", got)
			}
			if st := s.Stats(); st.Corrupt != d.corrupt || st.Misses != 1-d.corrupt {
				t.Fatalf("stats %+v, want %d corrupt read(s) and %d clean miss(es)", st, d.corrupt, 1-d.corrupt)
			}
			// A re-Put heals the entry.
			s.Put(addr, []byte("healed"))
			if got, ok := s.Get(addr); !ok || string(got) != "healed" {
				t.Fatalf("healed Get = %q, %v", got, ok)
			}
		})
	}
}

// TestDamagedRecordMidSegment flips a payload byte of the middle one of
// three records: the header-only index does not notice, so the records
// after it are still indexed and served, and only the damaged one is a
// corrupt read.
func TestDamagedRecordMidSegment(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	payload := func(a uint64) []byte { return []byte(fmt.Sprintf("payload-for-%d", a)) }
	for a := uint64(1); a <= 3; a++ {
		w.Put(a, payload(a))
	}
	damage(t, onlySegment(t, dir), func(raw []byte) []byte {
		raw[len(record(1, payload(1)))+headerLen] ^= 1
		return raw
	})
	s, _ := Open(dir)
	for a := uint64(1); a <= 3; a++ {
		got, ok := s.Get(a)
		if want := a != 2; ok != want || ok && !bytes.Equal(got, payload(a)) {
			t.Fatalf("Get(%d) = %q, %v; want a hit: %v", a, got, ok, want)
		}
	}
	if st := s.Stats(); st.Hits != 2 || st.Corrupt != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 2 hits and 1 corrupt read", st)
	}
}

// TestHealedRecordWinsOnReopen heals a damaged record through a second
// handle, whose segment is newer: a third handle indexes both segments
// and serves the healed record.
func TestHealedRecordWinsOnReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	w.Put(5, []byte("original"))
	damage(t, onlySegment(t, dir), func(raw []byte) []byte { raw[len(raw)-1] ^= 1; return raw })
	h, _ := Open(dir)
	if _, ok := h.Get(5); ok {
		t.Fatal("damaged entry served as a hit")
	}
	h.Put(5, []byte("healed"))
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("segments %v, want the damaged one and the healing one", segs)
	}
	r, _ := Open(dir)
	if got, ok := r.Get(5); !ok || string(got) != "healed" {
		t.Fatalf("Get after reopening = %q, %v; want the healed record", got, ok)
	}
	if st := r.Stats(); st.Corrupt != 0 {
		t.Fatalf("stats %+v, want no corrupt read", st)
	}
}

// TestTornTailIsCorruptRead appends the first half of a record, as a
// writer killed mid-write leaves it: the whole records before it are
// served, and the torn one is a counted corrupt read, not a silent loss.
func TestTornTailIsCorruptRead(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	w.Put(1, []byte("whole"))
	torn := record(2, bytes.Repeat([]byte("torn"), 10))
	f, err := os.OpenFile(onlySegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := Open(dir)
	if got, ok := s.Get(1); !ok || string(got) != "whole" {
		t.Fatalf("Get(1) = %q, %v; want the whole record", got, ok)
	}
	if got, ok := s.Get(2); ok {
		t.Fatalf("torn record served as a hit: %q", got)
	}
	if st := s.Stats(); st.Hits != 1 || st.Corrupt != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 1 hit and 1 corrupt read", st)
	}
}

// TestFailedWriteRetiresSegment makes the handle's segment refuse
// writes, as a full disk would: the Put is a counted write error, the
// next Put appends to a fresh segment, and what the old segment holds is
// still served.
func TestFailedWriteRetiresSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(1, []byte("before"))
	readOnly, err := os.Open(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	s.active.f = readOnly
	s.Put(2, []byte("refused"))
	if st := s.Stats(); st.WriteErrs != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v, want 1 write and 1 write error", st)
	}
	s.Put(3, []byte("after"))
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("segments %v, want the retired one and a fresh one", segs)
	}
	for a, want := range map[uint64]string{1: "before", 3: "after"} {
		if got, ok := s.Get(a); !ok || string(got) != want {
			t.Fatalf("Get(%d) = %q, %v; want %q", a, got, ok, want)
		}
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("refused write served as a hit")
	}
}

// TestConcurrentPutGet hammers one store from many goroutines writing
// and reading overlapping addresses: every Get must return either a
// miss or the exact payload for its address (all writers of an address
// write identical bytes, mirroring content addressing).
func TestConcurrentPutGet(t *testing.T) {
	s, _ := Open(t.TempDir())
	const addrs = 17
	payload := func(a uint64) []byte { return []byte(fmt.Sprintf("payload-for-%d", a)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				a := uint64((g*31 + i) % addrs)
				if i%2 == 0 {
					s.Put(a, payload(a))
				} else if got, ok := s.Get(a); ok && !bytes.Equal(got, payload(a)) {
					t.Errorf("addr %d: wrong payload %q", a, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.WriteErrs != 0 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want no write errors or corruption", st)
	}
	// Every goroutine appended through the one handle's one segment.
	onlySegment(t, s.Dir())
}

// TestPutCreatesNoSubdirectory: records for addresses of any top byte go
// to the handle's one segment in the store's root.
func TestPutCreatesNoSubdirectory(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Put(0xab00000000000001, []byte("x"))
	s.Put(0x0100000000000001, []byte("y"))
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Fatalf("Put created the subdirectory %s", e.Name())
		}
	}
	onlySegment(t, s.Dir())
}

// TestBudgetBoundsTheStore writes six times the budget through a handle
// with lowered limits: the segment bytes stay within the budget plus one
// segment, the newest entries still hit, and the deleted ones are clean
// misses — for the writing handle and for one that trims at Open.
func TestBudgetBoundsTheStore(t *testing.T) {
	const segMax, budget = 1 << 10, 4 << 10
	dir := t.TempDir()
	payload := func(a uint64) []byte { return bytes.Repeat([]byte{byte(a)}, 100) }
	dirBytes := func() int64 {
		var n int64
		for _, p := range segments(t, dir) {
			if info, err := os.Stat(p); err == nil {
				n += info.Size()
			}
		}
		return n
	}
	check := func(s *Store) {
		t.Helper()
		for a := uint64(190); a < 200; a++ {
			if got, ok := s.Get(a); !ok || !bytes.Equal(got, payload(a)) {
				t.Fatalf("newest entry %d: Get = %q, %v", a, got, ok)
			}
		}
		before := s.Stats()
		for a := uint64(0); a < 10; a++ {
			if _, ok := s.Get(a); ok {
				t.Fatalf("entry %d survived six budgets of newer writes", a)
			}
		}
		if st := s.Stats(); st.Misses-before.Misses != 10 || st.Corrupt != before.Corrupt {
			t.Fatalf("stats %+v after %+v, want 10 clean misses", st, before)
		}
	}

	w, _ := open(dir, segMax, budget)
	for a := uint64(0); a < 200; a++ {
		w.Put(a, payload(a))
		if n := dirBytes(); n > budget+segMax {
			t.Fatalf("after %d puts the segments hold %d bytes, over the budget plus one segment", a+1, n)
		}
	}
	if st := w.Stats(); st.Writes != 200 || st.WriteErrs != 0 {
		t.Fatalf("stats %+v, want 200 writes", st)
	}
	check(w)
	if n := len(w.segs); n > budget/segMax+1 {
		t.Fatalf("writer holds %d segments open, want at most %d", n, budget/segMax+1)
	}

	r, _ := open(dir, segMax, budget/2)
	if n := dirBytes(); n > budget/2 {
		t.Fatalf("after a trimming Open the segments hold %d bytes, over the budget %d", n, budget/2)
	}
	check(r)
}
