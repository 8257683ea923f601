package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segLog is the append-only log under the event store, the feed DLQ and
// the retirement archive: CRC-framed records (record.go) in files named
// seg-<8-digit index>.log, of which only the newest is open for append.
// An append writes all its frames with one Write, so a crash can only tear
// the tail of the newest segment; a scan at open keeps each segment's
// leading intact frames, truncates the rest, and moves on to the next
// segment.
type segLog struct {
	dir      string
	segLimit int64    // an append rotates first once the newest segment holds this many bytes
	seg      *segment // the newest segment, open for append
}

const (
	segmentPrefix = "seg-"
	segmentSuffix = ".log"
	firstSegment  = 1
)

func segmentPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, index, segmentSuffix))
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if n, ok := fileIndex(e.Name(), segmentPrefix, segmentSuffix); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// fileIndex parses a log file name of the form prefix<index>suffix; an
// unrelated file that happens to match the affixes is not one.
func fileIndex(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
	return n, err == nil
}

// openSegLog opens the log in dir, creating the directory if needed: it
// replays every segment through scanLog, then opens the newest for append
// under the given sync policy.
func openSegLog(dir string, segLimit int64, policy SyncPolicy, syncEvery int,
	fn func(seg int, off int64, payload []byte) error, done func(seg int, torn int64)) (*segLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	indices, err := scanLog(dir, fn, done)
	if err != nil {
		return nil, err
	}
	next := firstSegment
	if len(indices) > 0 {
		next = indices[len(indices)-1]
	}
	seg, err := openSegment(segmentPath(dir, next), next, policy, syncEvery)
	if err != nil {
		return nil, err
	}
	return &segLog{dir: dir, segLimit: segLimit, seg: seg}, nil
}

// scanLog replays the segments in dir oldest first. fn receives each
// intact frame: its segment index, byte offset and payload, which is valid
// only during the call. An error from fn that matches ErrCorruptRecord
// makes that frame the start of the segment's torn tail; any other error
// aborts the scan. Each segment is cut back to its intact prefix, and
// done, when non-nil, hears how many bytes were cut. scanLog returns the
// indices it scanned.
func scanLog(dir string, fn func(seg int, off int64, payload []byte) error, done func(seg int, torn int64)) ([]int, error) {
	indices, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, idx := range indices {
		torn, err := scanSegmentFile(segmentPath(dir, idx), idx, fn)
		if err != nil {
			return nil, err
		}
		if done != nil {
			done(idx, torn)
		}
	}
	return indices, nil
}

// mapFile maps the whole file at path read-only (see mmapFile).
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return mmapFile(f, st.Size())
}

// scanSegmentFile maps one segment and replays it through fn as scanLog
// describes, returning the number of torn bytes it truncated.
func scanSegmentFile(path string, seg int, fn func(seg int, off int64, payload []byte) error) (int64, error) {
	data, err := mapFile(path)
	if err != nil {
		return 0, err
	}
	offs, valid := scanFrames(data)
	for _, off := range offs {
		if err = fn(seg, int64(off), framePayload(data, off)); err != nil {
			if errors.Is(err, ErrCorruptRecord) {
				valid, err = int(off), nil
			}
			break
		}
	}
	// The mapping goes before the file shrinks under it.
	if uerr := munmapChunk(data); err == nil {
		err = uerr
	}
	if err != nil || valid == len(data) {
		return 0, err
	}
	return int64(len(data) - valid), truncateTorn(path, int64(valid), int64(len(data)))
}

// truncateTorn cuts the file at path back to its valid leading bytes. It
// is the one torn-tail repair of every log, chunks included.
func truncateTorn(path string, valid, size int64) error {
	if err := os.Truncate(path, valid); err != nil {
		return fmt.Errorf("storage: truncating torn tail of %s: %w", path, err)
	}
	metReplayTornBytes.Add(uint64(size - valid))
	return nil
}

// append frames payloads into one Write on the newest segment, rotating
// first once that segment holds segLimit bytes, and returns where the
// first frame landed.
func (l *segLog) append(payloads ...[]byte) (seg int, off int64, err error) {
	if l.seg.size >= l.segLimit {
		if err := l.seg.Close(); err != nil {
			return 0, 0, err
		}
		next, err := openSegment(segmentPath(l.dir, l.seg.index+1), l.seg.index+1, l.seg.policy, l.seg.syncEvery)
		if err != nil {
			return 0, 0, err
		}
		l.seg = next
		metRotations.Inc()
	}
	seg, off = l.seg.index, l.seg.size
	_, err = l.seg.append(payloads...)
	return seg, off, err
}

// readAt reads back the n-byte frame at off in segment seg and returns its
// payload.
func (l *segLog) readAt(seg int, off int64, n int) ([]byte, error) {
	f, err := os.Open(segmentPath(l.dir, seg))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: reading segment %d at %d: %w", seg, off, err)
	}
	if offs, valid := scanFrames(buf); len(offs) != 1 || valid != n {
		return nil, fmt.Errorf("%w: segment %d at %d", ErrCorruptRecord, seg, off)
	}
	return buf[headerSize:], nil
}

// reset deletes every segment and starts the log over.
func (l *segLog) reset() error {
	l.seg.File.Close() // no sync: the file is deleted next
	indices, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, idx := range indices {
		if err := os.Remove(segmentPath(l.dir, idx)); err != nil {
			return err
		}
	}
	seg, err := openSegment(segmentPath(l.dir, firstSegment), firstSegment, l.seg.policy, l.seg.syncEvery)
	if err != nil {
		return err
	}
	l.seg = seg
	return nil
}

// segment is one append-only file of framed records: the newest segment
// of a segLog, or the tiered store's open chunk.
type segment struct {
	*os.File
	index     int
	size      int64
	buf       []byte // frame buffer reused across appends
	policy    SyncPolicy
	syncEvery int // SyncBatch's batch size
	sinceSync int
}

// openSegment opens (creating if needed) path for appending.
func openSegment(path string, index int, policy SyncPolicy, syncEvery int) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{File: f, index: index, size: st.Size(), policy: policy, syncEvery: syncEvery}, nil
}

// append frames payloads, writes them with one Write, and syncs as the
// policy asks. It returns the frames, valid until the next append. A
// payload over maxRecordSize fails the call before anything is written:
// a scan would read its frame as a torn tail and drop it with everything
// after it.
func (s *segment) append(payloads ...[]byte) ([]byte, error) {
	s.buf = s.buf[:0]
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			return nil, fmt.Errorf("storage: %d-byte record exceeds the %d-byte limit", len(p), maxRecordSize)
		}
		s.buf = appendRecord(s.buf, p)
	}
	n, err := s.Write(s.buf)
	s.size += int64(n)
	if err != nil {
		return nil, err
	}
	switch s.policy {
	case SyncAlways:
		err = s.Sync()
	case SyncBatch:
		if s.sinceSync++; s.sinceSync >= s.syncEvery {
			s.sinceSync = 0
			err = s.Sync()
		}
	}
	return s.buf, err
}

// Sync fsyncs the file and counts it.
func (s *segment) Sync() error {
	if err := s.File.Sync(); err != nil {
		return err
	}
	metSyncs.Inc()
	return nil
}

// Close syncs and closes the file.
func (s *segment) Close() error {
	if err := s.Sync(); err != nil {
		s.File.Close()
		return err
	}
	return s.File.Close()
}
