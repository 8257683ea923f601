package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
)

func day(d int) time.Time { return time.Date(2014, 7, d, 0, 0, 0, 0, time.UTC) }

func snip(id event.SnippetID, src event.SourceID, d int, ents ...event.Entity) *event.Snippet {
	s := &event.Snippet{
		ID: id, Source: src, Timestamp: day(d),
		Entities: ents,
		Terms:    []event.Term{{Token: "crash", Weight: 1}},
	}
	s.Normalize()
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	payload := []byte("hello snippets")
	frame := appendRecord(nil, payload)
	offs, valid := scanFrames(frame)
	if len(offs) != 1 || valid != len(frame) {
		t.Fatalf("scanFrames = %v, %d; want one frame spanning %d bytes", offs, valid, len(frame))
	}
	if got := framePayload(frame, offs[0]); !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// A second frame follows the first cleanly, and the scan ends exactly
	// at the end of the data.
	two := appendRecord(append([]byte(nil), frame...), []byte("x"))
	if offs, valid := scanFrames(two); len(offs) != 2 || offs[1] != uint32(len(frame)) || valid != len(two) {
		t.Fatalf("two frames: scanFrames = %v, %d", offs, valid)
	}
}

// TestRecordCorruption: each kind of damage ends the scan at the damaged
// frame, keeping the intact frame before it.
func TestRecordCorruption(t *testing.T) {
	payload := []byte("data")
	frame := appendRecord(nil, payload)
	lead := appendRecord(nil, []byte("intact"))
	damaged := func(name string, bad []byte) {
		t.Helper()
		data := append(append([]byte(nil), lead...), bad...)
		if offs, valid := scanFrames(data); len(offs) != 1 || valid != len(lead) {
			t.Errorf("%s: scanFrames = %v, %d; want the one intact frame of %d bytes", name, offs, valid, len(lead))
		}
	}
	edit := func(at int, b byte) []byte {
		bad := append([]byte(nil), frame...)
		bad[at] = b
		return bad
	}
	damaged("bad CRC (flipped payload)", edit(len(frame)-1, frame[len(frame)-1]^0xff))
	damaged("bad magic", edit(0, frame[0]^0xff))
	damaged("torn header", frame[:5])
	damaged("torn payload", frame[:len(frame)-2])
	damaged("bad version", edit(4, 99))
	oversized := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(oversized[5:9], maxRecordSize+1)
	damaged("oversized length", oversized)
}

func TestStoreAppendAndIndexes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Append(snip(1, "nyt", 17, "UKR", "MAL")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(snip(2, "wsj", 18, "UKR")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(snip(3, "nyt", 16, "RUS")); err != nil { // out of order
		t.Fatal(err)
	}

	if st.Len() != 3 {
		t.Fatalf("Len = %d", st.Len())
	}
	if got := st.Get(2); got == nil || got.Source != "wsj" {
		t.Fatalf("Get(2) = %+v", got)
	}
	if got := st.Get(99); got != nil {
		t.Fatal("Get(99) should be nil")
	}
	// Chronological All despite out-of-order append.
	all := st.All()
	if len(all) != 3 || all[0].ID != 3 || all[1].ID != 1 || all[2].ID != 2 {
		t.Fatalf("All order = %v", all)
	}
	if text, _, ok := st.SnippetText(1); !ok || text != all[1].Text {
		t.Fatalf("SnippetText(1) = %q, %v", text, ok)
	}
	if _, _, ok := st.SnippetText(99); ok {
		t.Fatal("SnippetText(99) should miss")
	}
}

func TestStoreRejectsInvalidAndDuplicates(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(&event.Snippet{ID: 1}); err == nil {
		t.Fatal("invalid snippet accepted")
	}
	if err := st.Append(snip(1, "nyt", 17, "UKR")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(snip(1, "nyt", 18, "UKR")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestStoreReopenRecoversData(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := st.Append(snip(event.SnippetID(i), "nyt", i, "UKR")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 10 {
		t.Fatalf("recovered Len = %d, want 10", st2.Len())
	}
	got := st2.Get(7)
	if got == nil || !got.Timestamp.Equal(day(7)) || got.Entities[0] != "UKR" {
		t.Fatalf("recovered snippet 7 = %+v", got)
	}
	// Appends continue with no duplicate complaints.
	if err := st2.Append(snip(11, "wsj", 20, "RUS")); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		st.Append(snip(event.SnippetID(i), "nyt", i, "UKR"))
	}
	st.Close()

	// Simulate a crash mid-write: append garbage + a truncated frame.
	f, err := os.OpenFile(newestChunk(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := appendRecord(nil, event.Encode(snip(6, "nyt", 6, "UKR")))
	f.Write(full[:len(full)-3]) // torn record
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5 (torn record dropped)", st2.Len())
	}
	if st2.RecoveredDrop() == 0 {
		t.Error("RecoveredDrop should report truncated bytes")
	}
	// The torn bytes must be gone from disk so new appends start clean.
	if err := st2.Append(snip(6, "nyt", 6, "UKR")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Len() != 6 {
		t.Fatalf("after re-append Len = %d, want 6", st3.Len())
	}
}

// TestStoreSegmentRotation: appends rotate into fresh chunk files as each
// one fills, and a reopen recovers every row across them.
func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Tier: &TierOptions{ChunkRows: 4}}) // tiny chunks
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := st.Append(snip(event.SnippetID(i), "nyt", i%28+1, "UKR")); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	chunks, err := filepath.Glob(filepath.Join(dir, "chunks", "chunk-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 13 {
		t.Fatalf("expected 12 sealed chunks and an open one, got %d chunk files", len(chunks))
	}
	// Everything still recoverable across chunks.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 50 {
		t.Fatalf("recovered %d snippets across chunks, want 50", st2.Len())
	}
}

func TestStoreClosedErrors(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.Append(snip(1, "nyt", 1, "UKR")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close: %v", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v", err)
	}
	if err := st.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

func TestStoreSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways, SyncBatch} {
		t.Run(fmt.Sprintf("policy%d", pol), func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{Sync: pol, SyncEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 1; i <= 10; i++ {
				if err := st.Append(snip(event.SnippetID(i), "nyt", i, "UKR")); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreConcurrentAppendAndRead(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 100; i++ {
				id := event.SnippetID(g*1000 + i + 1)
				if err := st.Append(snip(id, event.SourceID(fmt.Sprintf("s%d", g)), i%28+1, "UKR")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				st.All()
				st.Get(event.SnippetID(i + 1))
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 400 {
		t.Fatalf("Len = %d, want 400", st.Len())
	}
}

func TestStoreIsolationFromCallerMutation(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := snip(1, "nyt", 17, "UKR")
	st.Append(s)
	s.Entities[0] = "XXX" // caller mutates after append
	if got := st.Get(1); got.Entities[0] != "UKR" {
		t.Fatal("store shares memory with caller's snippet")
	}
}

func TestListSegmentsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "seg-notanumber.log"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, segmentPrefix+"00000002"+segmentSuffix), nil, 0o644)
	got, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("listSegments = %v", got)
	}
}

func TestReplaySkipsDuplicateRecords(t *testing.T) {
	// The same record present in two flat-log segments is migrated once.
	dir := t.TempDir()
	writeFlatLog(t, dir, 1<<20, [][]byte{event.Encode(snip(1, "nyt", 1, "UKR"))})
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("Len with duplicated segments = %d, want 1", st2.Len())
	}
}

// TestStoreQuickRoundTrip persists randomly generated snippets and checks
// that a reopened store returns byte-identical contents.
func TestStoreQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		st, err := Open(dir, Options{Tier: &TierOptions{ChunkRows: 4}})
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(20)
		want := make(map[event.SnippetID]*event.Snippet, n)
		for i := 0; i < n; i++ {
			s := &event.Snippet{
				ID:        event.SnippetID(i + 1),
				Source:    event.SourceID(fmt.Sprintf("s%d", rng.Intn(3))),
				Timestamp: day(1 + rng.Intn(28)),
				Entities:  []event.Entity{event.Entity(fmt.Sprintf("e%d", rng.Intn(5)))},
				Terms:     []event.Term{{Token: fmt.Sprintf("t%d", rng.Intn(9)), Weight: rng.Float64() + 0.1}},
				Text:      fmt.Sprintf("text-%d", rng.Int()),
			}
			s.Normalize()
			want[s.ID] = s
			if err := st.Append(s); err != nil {
				return false
			}
		}
		st.Close()
		st2, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		defer st2.Close()
		if st2.Len() != n {
			return false
		}
		for id, w := range want {
			g := st2.Get(id)
			if g == nil || !reflect.DeepEqual(g, w) {
				t.Logf("seed %d: snippet %d mismatch:\n got %+v\nwant %+v", seed, id, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAll pins All's order: chronological, ties by ascending ID,
// whatever order the snippets were appended in — live and after the
// chunks are recovered on reopen. Nothing keeps the store sorted between calls;
// All sorts when asked.
func TestStoreAll(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Tier: &TierOptions{ChunkRows: 8}}) // several chunks
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 60
	for _, i := range rng.Perm(n) {
		// Three snippets per day, so every timestamp has ID ties.
		if err := st.Append(snip(event.SnippetID(i+1), "nyt", 1+i%20, "A")); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, all []*event.Snippet) {
		t.Helper()
		if len(all) != n {
			t.Fatalf("%s: All returned %d snippets, want %d", when, len(all), n)
		}
		for i := 1; i < len(all); i++ {
			a, b := all[i-1], all[i]
			if b.Timestamp.Before(a.Timestamp) || (b.Timestamp.Equal(a.Timestamp) && b.ID <= a.ID) {
				t.Fatalf("%s: All[%d]=(%s, %d) follows (%s, %d)", when, i, b.Timestamp, b.ID, a.Timestamp, a.ID)
			}
		}
	}
	check("live", st.All())
	// The returned slice is the caller's: reordering it does not disturb
	// the next call.
	all := st.All()
	all[0], all[n-1] = all[n-1], all[0]
	check("after caller mutation", st.All())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check("reopened", st2.All())
}

// newestChunk returns the path of the store's highest-index raw chunk
// file, the one a crash can tear.
func newestChunk(t *testing.T, dir string) string {
	t.Helper()
	chunks, err := filepath.Glob(filepath.Join(dir, "chunks", "chunk-*.log"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunk files in %s (%v)", dir, err)
	}
	return chunks[len(chunks)-1]
}

// writeFlatLog writes payloads into a seg-*.log directory the way the
// flat store's Append did: one framed record per append, rotating once a
// segment holds segLimit bytes.
func writeFlatLog(t *testing.T, dir string, segLimit int64, payloads [][]byte) {
	t.Helper()
	l, err := openSegLog(dir, segLimit, SyncNever, 256, func(int, int64, []byte) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, _, err := l.append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.seg.Close(); err != nil {
		t.Fatal(err)
	}
}
