package storage

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vocab"
)

// archStory builds a fully populated story for archive tests: snippets,
// an entity-frequency vector, and a term centroid with non-trivial
// weights, at a non-zero generation.
func archStory(id event.StoryID, src event.SourceID, gen uint64, ents ...event.Entity) *event.Story {
	sns := []*event.Snippet{
		snip(event.SnippetID(uint64(id)*10+1), src, 1, ents...),
		snip(event.SnippetID(uint64(id)*10+2), src, 3, ents...),
	}
	freq := make([]vocab.IDCount, 0, len(ents))
	for _, e := range ents {
		freq = append(freq, vocab.IDCount{ID: vocab.Entities.ID(string(e)), N: 2})
	}
	cen := []vocab.IDWeight{
		{ID: vocab.Terms.ID("crash"), W: 1.25},
		{ID: vocab.Terms.ID("inquiry"), W: 0.5},
	}
	return event.RestoreStory(id, src, sns, freq, cen, day(1), day(3), gen)
}

// members resolves snippet IDs to the given stories' snippets, as the
// event store an archive record points into would.
func members(stories ...*event.Story) func(event.SnippetID) *event.Snippet {
	byID := make(map[event.SnippetID]*event.Snippet)
	for _, st := range stories {
		for _, sn := range st.Snippets {
			byID[sn.ID] = sn
		}
	}
	return func(id event.SnippetID) *event.Snippet { return byID[id] }
}

// sameStory compares the archive-visible state of two stories: identity,
// extent, generation, snippet IDs, and bit-exact aggregate values.
func sameStory(t *testing.T, got, want *event.Story) {
	t.Helper()
	if got.ID != want.ID || got.Source != want.Source || got.Gen() != want.Gen() {
		t.Fatalf("identity mismatch: got (%d,%s,gen %d), want (%d,%s,gen %d)",
			got.ID, got.Source, got.Gen(), want.ID, want.Source, want.Gen())
	}
	if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
		t.Fatalf("extent mismatch: got [%v,%v], want [%v,%v]", got.Start, got.End, want.Start, want.End)
	}
	if len(got.Snippets) != len(want.Snippets) {
		t.Fatalf("snippet count %d, want %d", len(got.Snippets), len(want.Snippets))
	}
	for i := range got.Snippets {
		if got.Snippets[i].ID != want.Snippets[i].ID {
			t.Fatalf("snippet %d has ID %d, want %d", i, got.Snippets[i].ID, want.Snippets[i].ID)
		}
	}
	if !reflect.DeepEqual(got.EntityFreq, want.EntityFreq) {
		t.Fatalf("entity freq mismatch:\n got %v\nwant %v", got.EntityFreq, want.EntityFreq)
	}
	if len(got.Centroid) != len(want.Centroid) {
		t.Fatalf("centroid length %d, want %d", len(got.Centroid), len(want.Centroid))
	}
	for i := range got.Centroid {
		if got.Centroid[i].ID != want.Centroid[i].ID ||
			math.Float64bits(got.Centroid[i].W) != math.Float64bits(want.Centroid[i].W) {
			t.Fatalf("centroid[%d] = %+v, want %+v (weights must survive bit-exact)",
				i, got.Centroid[i], want.Centroid[i])
		}
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arch, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 0 {
		t.Fatalf("fresh archive reported %d records", len(metas))
	}
	a := archStory(1, "alpha", 3, "mh17", "ukraine")
	b := archStory(2, "alpha", 1, "gaza")
	got, n, err := arch.AppendGroup(7, day(20), []*event.Story{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || n <= 0 {
		t.Fatalf("AppendGroup returned %d metas, %d bytes", len(got), n)
	}
	for i, want := range []*event.Story{a, b} {
		m := got[i]
		if m.Group != 7 || m.ID != want.ID || m.Source != want.Source || m.Gen != want.Gen() {
			t.Fatalf("meta[%d] = %+v, want identity of story %d", i, m, want.ID)
		}
		if !m.Start.Equal(want.Start) || !m.End.Equal(want.End) {
			t.Fatalf("meta[%d] extent [%v,%v], want [%v,%v]", i, m.Start, m.End, want.Start, want.End)
		}
		st, err := arch.ReadStory(m.Loc, members(a, b))
		if err != nil {
			t.Fatalf("ReadStory(%d): %v", want.ID, err)
		}
		sameStory(t, st, want)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := arch.ReadStory(got[0].Loc, members(a, b)); err != ErrArchiveClosed {
		t.Fatalf("read after close: %v, want ErrArchiveClosed", err)
	}
}

func TestArchiveReopenLatestWins(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := archStory(5, "alpha", 1, "mh17")
	if _, _, err := arch.AppendGroup(1, day(10), []*event.Story{first}); err != nil {
		t.Fatal(err)
	}
	// The same story re-archived later (retire → reactivate → retire):
	// a new record under a new group at a higher generation.
	second := archStory(5, "alpha", 4, "mh17", "ukraine")
	if _, _, err := arch.AppendGroup(2, day(30), []*event.Story{second}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	arch2, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch2.Close()
	// Scan order is oldest-first; the caller keeps the last meta per ID.
	if len(metas) != 2 {
		t.Fatalf("reopen scanned %d records, want 2", len(metas))
	}
	if metas[0].Gen != 1 || metas[1].Gen != 4 {
		t.Fatalf("scan order gens = %d,%d, want 1,4 (oldest first)", metas[0].Gen, metas[1].Gen)
	}
	st, err := arch2.ReadStory(metas[1].Loc, members(second))
	if err != nil {
		t.Fatal(err)
	}
	sameStory(t, st, second)
	// Appends keep working on the reopened handle.
	if _, _, err := arch2.AppendGroup(3, day(40), []*event.Story{archStory(6, "beta", 1, "ebola")}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestArchiveTornTail(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := archStory(1, "alpha", 1, "mh17")
	if _, _, err := arch.AppendGroup(1, day(10), []*event.Story{keep}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := arch.AppendGroup(2, day(20), []*event.Story{archStory(2, "alpha", 1, "gaza")}); err != nil {
		t.Fatal(err)
	}
	arch.Close()

	seg := segmentPath(dir, 1)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	arch2, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatalf("torn tail broke reopen: %v", err)
	}
	defer arch2.Close()
	if len(metas) != 1 || metas[0].ID != 1 {
		t.Fatalf("torn reopen kept %v, want just story 1", metas)
	}
	// The tail was truncated to the intact prefix: new appends land on a
	// clean boundary and survive another reopen.
	if _, _, err := arch2.AppendGroup(3, day(30), []*event.Story{archStory(3, "alpha", 1, "ebola")}); err != nil {
		t.Fatal(err)
	}
	arch2.Close()
	_, metas, err = OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[1].ID != 3 {
		t.Fatalf("post-repair reopen scanned %v, want stories 1 and 3", metas)
	}
}

func TestArchiveReset(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	if _, _, err := arch.AppendGroup(1, day(10), []*event.Story{archStory(1, "alpha", 1, "mh17")}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Reset(); err != nil {
		t.Fatal(err)
	}
	// Post-reset appends work, and a reopen sees only them.
	if _, _, err := arch.AppendGroup(2, day(20), []*event.Story{archStory(2, "alpha", 1, "gaza")}); err != nil {
		t.Fatal(err)
	}
	arch.Close()
	_, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != 2 {
		t.Fatalf("reset archive scanned %v, want just story 2", metas)
	}
}

func TestArchiveSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	arch.segLimit = 256 // force rotation quickly
	var want []event.StoryID
	var stories []*event.Story
	locs := make(map[event.StoryID]ArchiveLoc)
	for i := 1; i <= 20; i++ {
		st := archStory(event.StoryID(i), "alpha", 1, "mh17", "ukraine")
		metas, _, err := arch.AppendGroup(uint64(i), day(10), []*event.Story{st})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
		stories = append(stories, st)
		locs[st.ID] = metas[0].Loc
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v (%v)", segs, err)
	}
	// Records in rotated-out segments stay readable.
	for id, loc := range locs {
		if _, err := arch.ReadStory(loc, members(stories...)); err != nil {
			t.Fatalf("ReadStory(%d) in seg %d: %v", id, loc.Seg, err)
		}
	}
	arch.Close()
	_, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(want) {
		t.Fatalf("reopen scanned %d records across segments, want %d", len(metas), len(want))
	}
	for i, m := range metas {
		if m.ID != want[i] {
			t.Fatalf("scan order[%d] = story %d, want %d", i, m.ID, want[i])
		}
	}
}

func TestArchiveEntityFreeFingerprint(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	// No entities: the meta falls back to the highest-weight terms.
	sns := []*event.Snippet{{
		ID: 1, Source: "alpha", Timestamp: day(1),
		Terms: []event.Term{{Token: "volcano", Weight: 2}, {Token: "ash", Weight: 1}},
	}}
	cen := []vocab.IDWeight{
		{ID: vocab.Terms.ID("volcano"), W: 2},
		{ID: vocab.Terms.ID("ash"), W: 1},
	}
	st := event.RestoreStory(9, "alpha", sns, nil, cen, day(1), day(1), 1)
	metas, _, err := arch.AppendGroup(1, day(10), []*event.Story{st})
	if err != nil {
		t.Fatal(err)
	}
	if len(metas[0].Entities) != 0 {
		t.Fatalf("entity-free story got entities %v", metas[0].Entities)
	}
	if len(metas[0].TopTerms) != 2 || metas[0].TopTerms[0] != "volcano" {
		t.Fatalf("TopTerms = %v, want volcano first (weight order)", metas[0].TopTerms)
	}
}

// TestArchiveTornFrameAtRotationBoundary crashes an archive right at a
// segment rotation: the rotated-out segment keeps a torn frame at its
// tail while the successor already holds intact records. Recovery must
// truncate the torn bytes in place and keep every intact record from
// both segments — one torn boundary frame must not poison the
// directory.
func TestArchiveTornFrameAtRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	arch.segLimit = 256
	var want []event.StoryID
	for i := 1; i <= 12; i++ {
		st := archStory(event.StoryID(i), "alpha", 1, "mh17", "ukraine")
		if _, _, err := arch.AppendGroup(uint64(i), day(10), []*event.Story{st}); err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	arch.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need at least two segments for the boundary crash, got %v (%v)", segs, err)
	}

	// Tear the tail of the FIRST (rotated-out) segment, not the last.
	first := segmentPath(dir, segs[0])
	f, err := os.OpenFile(first, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x31, 0x56, 0x50, 0x53, 0x01, 0xff, 0xff})
	f.Close()

	arch2, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatalf("torn rotation boundary broke reopen: %v", err)
	}
	defer arch2.Close()
	if len(metas) != len(want) {
		t.Fatalf("boundary tear dropped records: scanned %d, want %d", len(metas), len(want))
	}
	for i, m := range metas {
		if m.ID != want[i] {
			t.Fatalf("scan order[%d] = story %d, want %d", i, m.ID, want[i])
		}
	}
	// The torn bytes are gone: another reopen scans the same set.
	arch2.Close()
	_, metas, err = OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(want) {
		t.Fatalf("second reopen scanned %d, want %d", len(metas), len(want))
	}
}

// TestArchiveResetRemovesAllSegments pins Reset against a rotated
// archive: every segment must go, not just the one currently open for
// append — stale rotated-out segments would resurrect retired stories
// the replay just rebuilt as live.
func TestArchiveResetRemovesAllSegments(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	arch.segLimit = 256
	for i := 1; i <= 12; i++ {
		st := archStory(event.StoryID(i), "alpha", 1, "mh17", "ukraine")
		if _, _, err := arch.AppendGroup(uint64(i), day(10), []*event.Story{st}); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := listSegments(dir); len(segs) < 2 {
		t.Fatalf("need a rotated archive, got segments %v", segs)
	}
	if err := arch.Reset(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("segments after Reset = %v, want just the fresh seg 1", segs)
	}
	if _, _, err := arch.AppendGroup(99, day(20), []*event.Story{archStory(99, "alpha", 1, "gaza")}); err != nil {
		t.Fatal(err)
	}
	arch.Close()
	_, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != 99 {
		t.Fatalf("post-reset reopen scanned %v, want just story 99", metas)
	}
}

// TestArchiveRecordNamesMembers: a record carries its members' snippet
// IDs, not their encodings, and a read fails when the store lacks one.
func TestArchiveRecordNamesMembers(t *testing.T) {
	arch, _, err := OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	st := archStory(1, "alpha", 1, "mh17")
	for _, sn := range st.Snippets {
		sn.Text = "a display excerpt the event store keeps"
	}
	metas, _, err := arch.AppendGroup(1, day(10), []*event.Story{st})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := arch.readAt(metas[0].Loc.Seg, metas[0].Loc.Off, metas[0].Loc.Len)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range st.Snippets {
		if bytes.Contains(payload, event.Encode(sn)) || bytes.Contains(payload, []byte(sn.Text)) {
			t.Fatalf("record holds a copy of snippet %d", sn.ID)
		}
	}
	got, err := arch.ReadStory(metas[0].Loc, members(st))
	if err != nil {
		t.Fatal(err)
	}
	sameStory(t, got, st)
	partial := archStory(1, "alpha", 1, "mh17")
	partial.Snippets = partial.Snippets[:1]
	if _, err := arch.ReadStory(metas[0].Loc, members(partial)); err == nil {
		t.Fatal("read succeeded with a member missing from the store")
	}
}

// TestArchiveCutsOlderVersion: a record of another payload version is
// undecodable, so open cuts the segment there and says so.
func TestArchiveCutsOlderVersion(t *testing.T) {
	dir := t.TempDir()
	arch, _, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := appendArchivedStory(nil, 1, day(10), archStory(1, "alpha", 1, "mh17"))
	payload[0] = 1
	if _, _, err := arch.append(payload); err != nil {
		t.Fatal(err)
	}
	if w := arch.RecoveryWarnings(); len(w) != 0 {
		t.Fatalf("fresh archive has warnings %v", w)
	}
	arch.Close()

	arch2, metas, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch2.Close()
	if len(metas) != 0 {
		t.Fatalf("version-1 record survived open: %v", metas)
	}
	if w := arch2.RecoveryWarnings(); len(w) != 1 {
		t.Fatalf("cut reported as %v, want one warning", w)
	}
}
