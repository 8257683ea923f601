package retire

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/vocab"
)

var t0 = time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)

const (
	day   = 24 * time.Hour
	omega = 14 * day
	slack = 7 * day
)

func testConfig(dir string) Config {
	return Config{
		Window:      21 * day,
		Dir:         dir,
		IdentWindow: omega,
		AlignSlack:  slack,
	}
}

// fakeStore stands in for the event store archive records point into.
type fakeStore struct {
	mu      sync.Mutex
	m       map[event.SnippetID]*event.Snippet
	syncErr error
	syncs   int
}

func newFakeStore() *fakeStore {
	return &fakeStore{m: make(map[event.SnippetID]*event.Snippet)}
}

func (s *fakeStore) put(sns ...*event.Snippet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sn := range sns {
		s.m[sn.ID] = sn
	}
}

func (s *fakeStore) drop(id event.SnippetID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
}

func (s *fakeStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	return s.syncErr
}

func (s *fakeStore) Get(id event.SnippetID) *event.Snippet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn := s.m[id]; sn != nil {
		return sn.Clone()
	}
	return nil
}

// store holds every snippet retireStory archives, across reopens.
var store = newFakeStore()

func open(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// testSnippet builds an interned snippet.
func testSnippet(id uint64, src string, ts time.Time, ents ...string) *event.Snippet {
	sn := &event.Snippet{
		ID:        event.SnippetID(id),
		Source:    event.SourceID(src),
		Timestamp: ts,
	}
	for _, e := range ents {
		sn.Entities = append(sn.Entities, event.Entity(e))
		sn.Terms = append(sn.Terms, event.Term{Token: "about_" + e, Weight: 1})
	}
	sn.Intern()
	return sn
}

// testStory builds a story over [start, end] with the given entities.
func testStory(id uint64, src string, start, end time.Time, ents ...string) *event.Story {
	sns := []*event.Snippet{testSnippet(id*100, src, start, ents...)}
	freq := make([]vocab.IDCount, 0, len(ents))
	for _, e := range ents {
		freq = append(freq, vocab.IDCount{ID: vocab.Entities.ID(e), N: 1})
	}
	var cen []vocab.IDWeight
	for _, e := range ents {
		cen = append(cen, vocab.IDWeight{ID: vocab.Terms.ID("about_" + e), W: 1})
	}
	return event.RestoreStory(event.StoryID(id), event.SourceID(src), sns, freq, cen, start, end, 1)
}

// retireStory runs one story (or group) through Archive+Commit, its
// snippets stored first as the pipeline's ingest stores them.
func retireStory(t *testing.T, m *Manager, watermark time.Time, stories ...*event.Story) uint64 {
	t.Helper()
	for _, st := range stories {
		store.put(st.Snippets...)
	}
	ticket, err := m.Archive(stories, watermark)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]event.StoryID, len(stories))
	for i, st := range stories {
		ids[i] = st.ID
	}
	m.Commit(ticket, ids)
	return ticket
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Window: -1}).Validate(); err == nil {
		t.Error("negative window accepted")
	}
	if err := (Config{Window: day, Grace: -1, Dir: "x"}).Validate(); err == nil {
		t.Error("negative grace accepted")
	}
	if err := (Config{Window: day}).Validate(); err == nil {
		t.Error("enabled window without archive dir accepted")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
}

func TestOpenDefaults(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	if want := 21 * day / 4; m.cfg.Grace != want {
		t.Errorf("Grace = %v, want %v (Window/4)", m.cfg.Grace, want)
	}
	if m.cfg.CheckEvery != 1 {
		t.Errorf("CheckEvery = %d, want 1", m.cfg.CheckEvery)
	}
	if m.bucketWidth != omega {
		t.Errorf("bucketWidth = %v, want max(ω, slack) = %v", m.bucketWidth, omega)
	}
}

func TestDuePolicy(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MinResident = 10
	cfg.CheckEvery = 3
	m := open(t, cfg)

	if m.Due(100, time.Time{}) {
		t.Error("due with zero watermark")
	}
	if m.Due(10, t0) {
		t.Error("due at MinResident")
	}
	// Above MinResident, only every CheckEvery-th publish fires.
	fired := 0
	for i := 0; i < 6; i++ {
		if m.Due(50, t0.Add(time.Duration(i)*day)) {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("fired %d walks over 6 publishes with CheckEvery=3, want 2", fired)
	}
	// The watermark is remembered high-water.
	if got := m.Snapshot().Watermark; !got.Equal(t0.Add(5 * day)) {
		t.Errorf("watermark = %v, want %v", got, t0.Add(5*day))
	}
}

func TestCold(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	end := t0
	if m.Cold(1, end, end.Add(21*day)) {
		t.Error("cold exactly at the window boundary")
	}
	if !m.Cold(1, end, end.Add(21*day+time.Nanosecond)) {
		t.Error("not cold past the window")
	}
	// Grace holds a reactivated story back, then clears.
	m.grace[1] = t0.Add(30 * day)
	if m.Cold(1, end, t0.Add(29*day)) {
		t.Error("cold during grace")
	}
	if !m.Cold(1, end, t0.Add(30*day)) {
		t.Error("not cold after grace expired")
	}
	if _, held := m.grace[1]; held {
		t.Error("expired grace entry not cleared")
	}
}

func TestArchiveCommitAbort(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	a := testStory(1, "alpha", t0, t0.Add(day), "mh17")
	b := testStory(2, "beta", t0, t0.Add(day), "mh17")

	// Commit with only one member detached: the other stays unindexed.
	ticket, err := m.Archive([]*event.Story{a, b}, t0.Add(30*day))
	if err != nil {
		t.Fatal(err)
	}
	m.Commit(ticket, []event.StoryID{1})
	if !m.Has(1) || m.Has(2) {
		t.Fatalf("partial commit indexed Has(1)=%v Has(2)=%v, want true,false", m.Has(1), m.Has(2))
	}
	v := m.Snapshot()
	if v.Retired != 1 || v.Archived != 1 || v.ArchivedBytes == 0 {
		t.Fatalf("view after partial commit: %+v", v)
	}

	// Abort leaves nothing indexed.
	c := testStory(3, "alpha", t0, t0.Add(day), "gaza")
	ticket, err = m.Archive([]*event.Story{c}, t0.Add(30*day))
	if err != nil {
		t.Fatal(err)
	}
	m.Abort(ticket)
	if m.Has(3) {
		t.Error("aborted ticket left story indexed")
	}
}

func TestTakeForSnippetWindows(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	st := testStory(1, "alpha", t0, t0.Add(2*day), "mh17")
	retireStory(t, m, t0.Add(40*day), st)

	// Cross-source evidence outside slack but inside ω must NOT match.
	if got := m.TakeForSnippet(testSnippet(10, "beta", t0.Add(2*day+10*day), "mh17")); got != nil {
		t.Fatalf("cross-source evidence beyond slack reactivated %v", got)
	}
	// Same-source evidence at the same lag (inside ω) matches.
	got := m.TakeForSnippet(testSnippet(11, "alpha", t0.Add(2*day+10*day), "mh17"))
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("same-source evidence inside ω returned %v, want story 1", got)
	}
	// Taken means gone: the next probe finds nothing.
	if m.Has(1) {
		t.Error("taken story still indexed")
	}
	if got := m.TakeForSnippet(testSnippet(12, "alpha", t0.Add(3*day), "mh17")); got != nil {
		t.Fatalf("second take returned %v", got)
	}
}

func TestTakeForSnippetRestoresState(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	st := testStory(1, "alpha", t0, t0.Add(2*day), "mh17", "ukraine")
	gen := st.Gen()
	retireStory(t, m, t0.Add(40*day), st)
	m.Due(100, t0.Add(40*day)) // grace anchors at the current watermark

	got := m.TakeForSnippet(testSnippet(10, "alpha", t0.Add(3*day), "ukraine"))
	if len(got) != 1 {
		t.Fatalf("reactivation returned %d stories, want 1", len(got))
	}
	r := got[0]
	if r.ID != st.ID || r.Source != st.Source {
		t.Fatalf("restored identity (%d,%s), want (%d,%s)", r.ID, r.Source, st.ID, st.Source)
	}
	if r.Gen() != gen+1 {
		t.Fatalf("restored gen %d, want bumped %d", r.Gen(), gen+1)
	}
	if len(r.Snippets) != 1 || r.Snippets[0].ID != st.Snippets[0].ID {
		t.Fatalf("restored snippets %v, want original members", r.Snippets)
	}
	// Reactivation sets the grace holdback.
	if m.Cold(r.ID, r.End, t0.Add(41*day)) {
		t.Error("reactivated story cold again immediately (grace not set)")
	}
	if v := m.Snapshot(); v.Reactivated != 1 {
		t.Fatalf("view after reactivation: %+v", v)
	}
}

func TestTakeForSnippetGroup(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	// Two stories retired as one alignment component: evidence matching
	// either member restores the whole group.
	a := testStory(1, "alpha", t0, t0.Add(2*day), "mh17")
	b := testStory(2, "beta", t0.Add(day), t0.Add(3*day), "mh17", "ukraine")
	retireStory(t, m, t0.Add(40*day), a, b)

	got := m.TakeForSnippet(testSnippet(10, "beta", t0.Add(4*day), "ukraine"))
	if len(got) != 2 {
		t.Fatalf("group reactivation returned %d stories, want both members", len(got))
	}
	if m.Has(1) || m.Has(2) {
		t.Error("taken group members still indexed")
	}
}

func TestTakeForSnippetTermFallback(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	// An entity-free story is fingerprinted by its top terms.
	sns := []*event.Snippet{{ID: 100, Source: "alpha", Timestamp: t0,
		Terms: []event.Term{{Token: "volcano", Weight: 2}}}}
	sns[0].Intern()
	cen := []vocab.IDWeight{{ID: vocab.Terms.ID("volcano"), W: 2}}
	st := event.RestoreStory(1, "alpha", sns, nil, cen, t0, t0.Add(day), 1)
	retireStory(t, m, t0.Add(40*day), st)

	miss := &event.Snippet{ID: 10, Source: "alpha", Timestamp: t0.Add(2 * day),
		Terms: []event.Term{{Token: "earthquake", Weight: 1}}}
	miss.Intern()
	if got := m.TakeForSnippet(miss); got != nil {
		t.Fatalf("non-overlapping terms reactivated %v", got)
	}
	hit := &event.Snippet{ID: 11, Source: "alpha", Timestamp: t0.Add(2 * day),
		Terms: []event.Term{{Token: "volcano", Weight: 1}}}
	hit.Intern()
	if got := m.TakeForSnippet(hit); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("term-fingerprint match returned %v, want story 1", got)
	}
}

func TestReopenLatestRecordWins(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	m := open(t, cfg)
	retireStory(t, m, t0.Add(40*day), testStory(1, "alpha", t0, t0.Add(2*day), "mh17"))
	// Reactivate and re-retire with a wider extent: two records on disk.
	taken := m.TakeForSnippet(testSnippet(10, "alpha", t0.Add(3*day), "mh17"))
	if len(taken) != 1 {
		t.Fatal("setup: reactivation failed")
	}
	wider := testStory(1, "alpha", t0, t0.Add(5*day), "mh17", "ukraine")
	retireStory(t, m, t0.Add(50*day), wider)
	m.Close()

	m2 := open(t, cfg)
	if got := m2.ArchivedIDs("alpha"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("reopen indexed %v, want just story 1 once", got)
	}
	// The surviving record is the later one (extended extent + entity).
	got := m2.TakeForSnippet(testSnippet(11, "alpha", t0.Add(6*day), "ukraine"))
	if len(got) != 1 || !got[0].End.Equal(t0.Add(5*day)) {
		t.Fatalf("reopen served %v, want the re-archived record (end %v)", got, t0.Add(5*day))
	}
}

func TestReconcileAndForgetSource(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	retireStory(t, m, t0.Add(40*day), testStory(1, "alpha", t0, t0.Add(day), "mh17"))
	retireStory(t, m, t0.Add(40*day), testStory(2, "beta", t0, t0.Add(day), "gaza"))
	retireStory(t, m, t0.Add(40*day), testStory(3, "alpha", t0, t0.Add(day), "ebola"))

	if got := m.ArchivedIDs("alpha"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ArchivedIDs(alpha) = %v, want [1 3] sorted", got)
	}
	m.Reconcile(map[event.StoryID]bool{1: true, 2: true})
	if m.Has(3) || !m.Has(1) || !m.Has(2) {
		t.Fatal("reconcile kept the wrong records")
	}
	m.ForgetSource("alpha")
	if m.Has(1) || !m.Has(2) {
		t.Fatal("ForgetSource dropped the wrong records")
	}
	if got := m.TakeForSnippet(testSnippet(10, "alpha", t0.Add(day), "mh17")); got != nil {
		t.Fatalf("forgotten source reactivated %v", got)
	}
}

func TestApply(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	w, g, r := 10*day, 2*day, 5
	if err := m.Apply(Update{Window: &w, Grace: &g, MinResident: &r}); err != nil {
		t.Fatal(err)
	}
	v := m.Snapshot()
	if v.Window != w.String() || v.Grace != g.String() || v.MinResident != 5 {
		t.Fatalf("applied view: %+v", v)
	}
	// Partial update keeps the rest.
	g2 := 3 * day
	if err := m.Apply(Update{Grace: &g2}); err != nil {
		t.Fatal(err)
	}
	if v := m.Snapshot(); v.Window != w.String() || v.Grace != g2.String() {
		t.Fatalf("partial update view: %+v", v)
	}
	// Invalid updates are rejected atomically.
	bad := -1
	if err := m.Apply(Update{MinResident: &bad}); err == nil {
		t.Error("negative min_resident accepted")
	}
	neg := -time.Hour
	if err := m.Apply(Update{Window: &neg}); err == nil {
		t.Error("negative window accepted")
	}
	if v := m.Snapshot(); v.MinResident != 5 {
		t.Fatalf("rejected update leaked: %+v", v)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	m := open(t, cfg)
	retireStory(t, m, t0.Add(40*day), testStory(1, "alpha", t0, t0.Add(day), "mh17"))
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if m.Has(1) {
		t.Error("reset left story indexed")
	}
	m.Close()
	m2 := open(t, cfg)
	if got := m2.ArchivedIDs("alpha"); len(got) != 0 {
		t.Fatalf("reset archive still holds %v on reopen", got)
	}
}

// TestTakeForSnippetUnreadableGroupStaysArchived: a matched group whose
// record cannot be read comes back not at all — it stays indexed and
// archived for a later match instead of leaving both the archive and the
// engine.
func TestTakeForSnippetUnreadableGroupStaysArchived(t *testing.T) {
	dir := t.TempDir()
	m := open(t, testConfig(dir))
	retireStory(t, m, t0.Add(40*day), testStory(1, "alpha", t0, t0.Add(2*day), "mh17"))

	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := metReactivateErrors.Value()
	if got := m.TakeForSnippet(testSnippet(10, "alpha", t0.Add(3*day), "mh17")); got != nil {
		t.Fatalf("corrupt record reactivated %v", got)
	}
	if !m.Has(1) || m.Snapshot().Archived != 1 {
		t.Fatalf("failed read dropped the story: Has(1)=%v, %+v", m.Has(1), m.Snapshot())
	}
	if metReactivateErrors.Value() == before {
		t.Error("failed read not counted")
	}
}

// TestTakeForSnippetMissingMemberKeepsGroup: one member of a co-retired
// group is missing from the store, so the group stays archived whole;
// once the store holds it again the group reactivates whole.
func TestTakeForSnippetMissingMemberKeepsGroup(t *testing.T) {
	m := open(t, testConfig(t.TempDir()))
	a := testStory(11, "alpha", t0, t0.Add(2*day), "mh17")
	b := testStory(12, "beta", t0.Add(day), t0.Add(3*day), "mh17", "ukraine")
	retireStory(t, m, t0.Add(40*day), a, b)
	store.drop(b.Snippets[0].ID)

	if got := m.TakeForSnippet(testSnippet(10, "alpha", t0.Add(3*day), "mh17")); got != nil {
		t.Fatalf("group with a missing member reactivated %v", got)
	}
	if !m.Has(11) || !m.Has(12) {
		t.Fatalf("failed read dropped the group: Has(11)=%v Has(12)=%v", m.Has(11), m.Has(12))
	}
	store.put(b.Snippets...)
	if got := m.TakeForSnippet(testSnippet(10, "alpha", t0.Add(3*day), "mh17")); len(got) != 2 {
		t.Fatalf("retry returned %d stories, want the whole group", len(got))
	}
}

// TestArchiveSyncsStoreFirst: Archive syncs the store before it appends,
// and a failed sync fails Archive with nothing appended.
func TestArchiveSyncsStoreFirst(t *testing.T) {
	bad := newFakeStore()
	bad.syncErr = errors.New("disk gone")
	m, err := Open(testConfig(t.TempDir()), bad)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Archive([]*event.Story{testStory(1, "alpha", t0, t0.Add(day), "mh17")}, t0.Add(30*day)); err == nil {
		t.Fatal("Archive succeeded over a store whose Sync fails")
	}
	if v := m.Snapshot(); v.ArchivedBytes != 0 || bad.syncs != 1 {
		t.Fatalf("failed sync: %d syncs, view %+v; want one sync and no bytes appended", bad.syncs, v)
	}
}
