package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// logFrame is one frame as a scan reports it.
type logFrame struct {
	seg     int
	off     int64
	payload string
}

// replayLog opens the log in dir, returning it with every frame its scan
// reported, in order.
func replayLog(t *testing.T, dir string) (*segLog, []logFrame) {
	t.Helper()
	var frames []logFrame
	l, err := openSegLog(dir, 40, SyncNever, 0, func(seg int, off int64, payload []byte) error {
		frames = append(frames, logFrame{seg, off, string(payload)})
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return l, frames
}

// copyLog replaces dst with a copy of the segment files in src.
func copyLog(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	indices, err := listSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range indices {
		data, err := os.ReadFile(segmentPath(src, idx))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(dst, idx), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegLogCrashAtEveryOffset crashes a rotated log at every byte: each
// segment is cut at every offset, and each rotated-out segment has every
// proper prefix of a frame torn onto its tail. On reopen exactly the
// complete frames before the cut survive, in every segment; the torn-bytes
// counter moves by exactly the bytes dropped; and the next append reads
// back after another reopen.
func TestSegLogCrashAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	pristine, work := filepath.Join(base, "pristine"), filepath.Join(base, "work")
	l, _ := replayLog(t, pristine)
	for i := 0; i < 12; i++ {
		if _, _, err := l.append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.seg.Close(); err != nil {
		t.Fatal(err)
	}
	l, all := replayLog(t, pristine)
	l.seg.Close()
	indices, _ := listSegments(pristine)
	if len(all) != 12 || len(indices) < 3 {
		t.Fatalf("pristine log holds %d frames in segments %v, want 12 in at least 3", len(all), indices)
	}
	newest := indices[len(indices)-1]
	frameLen := func(f logFrame) int64 { return int64(headerSize + len(f.payload)) }

	// check reopens work, expecting exactly want and a torn-bytes delta of
	// torn, then appends one record and reads it back after a reopen.
	check := func(name string, want []logFrame, torn int64) {
		t.Helper()
		before := metReplayTornBytes.Value()
		l, got := replayLog(t, work)
		if delta := int64(metReplayTornBytes.Value() - before); delta != torn {
			t.Fatalf("%s: torn-bytes counter moved %d, want %d", name, delta, torn)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: reopen kept\n%v\nwant\n%v", name, got, want)
		}
		seg, off, err := l.append([]byte("after"))
		if err != nil {
			t.Fatalf("%s: append after repair: %v", name, err)
		}
		if err := l.seg.Close(); err != nil {
			t.Fatal(err)
		}
		l, got = replayLog(t, work)
		defer l.seg.Close()
		if len(got) != len(want)+1 || got[len(got)-1] != (logFrame{seg, off, "after"}) {
			t.Fatalf("%s: after append and reopen scanned %v", name, got)
		}
		payload, err := l.readAt(seg, off, headerSize+len("after"))
		if err != nil || string(payload) != "after" {
			t.Fatalf("%s: readAt = %q, %v", name, payload, err)
		}
	}

	for _, s := range indices {
		st, err := os.Stat(segmentPath(pristine, s))
		if err != nil {
			t.Fatal(err)
		}
		for cut := int64(0); cut <= st.Size(); cut++ {
			copyLog(t, pristine, work)
			if err := os.Truncate(segmentPath(work, s), cut); err != nil {
				t.Fatal(err)
			}
			var want []logFrame
			kept := int64(0)
			for _, f := range all {
				if f.seg != s {
					want = append(want, f)
				} else if end := f.off + frameLen(f); end <= cut {
					want = append(want, f)
					kept = end
				}
			}
			check(fmt.Sprintf("segment %d cut at %d", s, cut), want, cut-kept)
		}
		if s == newest {
			continue
		}
		torn := appendRecord(nil, []byte("torn-record"))
		for k := 1; k < len(torn); k++ {
			copyLog(t, pristine, work)
			f, err := os.OpenFile(segmentPath(work, s), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(torn[:k]); err != nil {
				t.Fatal(err)
			}
			f.Close()
			check(fmt.Sprintf("segment %d torn by %d bytes", s, k), all, int64(k))
		}
	}

	// A frame the caller's decoder rejects with ErrCorruptRecord is cut
	// like a torn tail: its segment keeps the frames before it, and the
	// later segments survive.
	copyLog(t, pristine, work)
	bad := all[4]
	var kept []logFrame
	l, err := openSegLog(work, 40, SyncNever, 0, func(seg int, off int64, payload []byte) error {
		if string(payload) == bad.payload {
			return fmt.Errorf("%w: rejected by the decoder", ErrCorruptRecord)
		}
		kept = append(kept, logFrame{seg, off, string(payload)})
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.seg.Close()
	_, got := replayLog(t, work)
	var want []logFrame
	for _, f := range all {
		if f.seg != bad.seg || f.off < bad.off {
			want = append(want, f)
		}
	}
	if fmt.Sprint(kept) != fmt.Sprint(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("decoder cut: scan kept %v, reopen %v, want %v", kept, got, want)
	}
}

// TestSegLogRejectsOversizedRecord: an append whose payload a scan would
// read as a torn tail fails before writing a byte, so the records on
// either side of it survive a reopen. The tiered store's open chunk, a
// lone segment, refuses it the same way.
func TestSegLogRejectsOversizedRecord(t *testing.T) {
	huge := make([]byte, maxRecordSize+1)
	dir := t.TempDir()
	l, _ := replayLog(t, dir)
	for _, p := range [][]byte{[]byte("before"), huge, []byte("after")} {
		_, _, err := l.append(p)
		if (err != nil) != (len(p) == len(huge)) {
			t.Fatalf("append of %d bytes: err = %v", len(p), err)
		}
	}
	l.seg.Close()
	l, got := replayLog(t, dir)
	l.seg.Close()
	if len(got) != 2 || got[0].payload != "before" || got[1].payload != "after" {
		t.Fatalf("reopen scanned %v, want the two valid records", got)
	}

	path := filepath.Join(t.TempDir(), "chunk.log")
	seg, err := openSegment(path, 0, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{[]byte("before"), huge, []byte("after")} {
		if _, err := seg.append(p); (err != nil) != (len(p) == len(huge)) {
			t.Fatalf("segment append of %d bytes: err = %v", len(p), err)
		}
	}
	seg.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecord(appendRecord(nil, []byte("before")), []byte("after"))
	if !bytes.Equal(data, want) {
		t.Fatalf("chunk holds %d bytes, want the two valid frames (%d bytes)", len(data), len(want))
	}
}
