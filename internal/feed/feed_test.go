package feed

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/event"
)

// TestRunnerBackoffDraws pins runner 0's first eight failure sleeps
// (base 10ms, cap 80ms, eight consecutive failures): the draw sequence
// of seed 1 through full jitter over the breaker's failure streak.
func TestRunnerBackoffDraws(t *testing.T) {
	m, err := NewManager(newRecSink(0), Config{
		BackoffBase:      10 * time.Millisecond,
		BackoffCap:       80 * time.Millisecond,
		BreakerThreshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Add(NewReplay("a", nil, 0)); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{7155986, 8914084, 29034361, 10000754, 49744346, 3859253, 65536758, 6334907}
	r := m.runners[0]
	for i, w := range want {
		if got := r.record(errors.New("fetch failed")); got != w {
			t.Fatalf("sleep %d = %d, want %d", i+1, got, w)
		}
	}
	if st := r.status(); st.ConsecutiveFailures != len(want) || st.State != StateDegraded {
		t.Fatalf("after %d failures: %+v", len(want), st)
	}
}

func TestReplayFetcherCursorsAndOffsets(t *testing.T) {
	sns := makeSnips("srcA", 5)
	r := NewReplay("srcA", sns, 1000)
	ctx := context.Background()

	b, err := r.Fetch(ctx, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snippets) != 2 || b.Next != "2" || b.Done {
		t.Fatalf("first batch: %d snippets, next %q, done %v", len(b.Snippets), b.Next, b.Done)
	}
	if b.Snippets[0].ID != 1001 {
		t.Fatalf("idOffset not applied: ID %d", b.Snippets[0].ID)
	}
	if sns[0].ID != 1 {
		t.Fatalf("idOffset mutated the backing snippet: ID %d", sns[0].ID)
	}

	b, err = r.Fetch(ctx, "2", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snippets) != 3 || b.Next != "5" || !b.Done {
		t.Fatalf("final batch: %d snippets, next %q, done %v", len(b.Snippets), b.Next, b.Done)
	}
	// Caught up: polling past the end stays Done and empty.
	b, _ = r.Fetch(ctx, "5", 10)
	if len(b.Snippets) != 0 || !b.Done {
		t.Fatalf("past-end batch: %d snippets, done %v", len(b.Snippets), b.Done)
	}
	if _, err := r.Fetch(ctx, "bogus", 1); err == nil {
		t.Fatal("bad cursor accepted")
	}
}

func TestFlakyDeterminism(t *testing.T) {
	inner := NewReplay("srcA", makeSnips("srcA", 4), 0)
	f := &Flaky{Fetcher: inner, FailFirst: 2, FailEvery: 3}
	ctx := context.Background()
	var got []bool
	for i := 0; i < 8; i++ {
		_, err := f.Fetch(ctx, "0", 1)
		got = append(got, err == nil)
	}
	// calls 1,2 fail (FailFirst), then every 3rd call fails: 3,6 ok?
	// call numbering: 3 %3==0 → fail; 4,5 ok; 6 fail; 7,8 ok.
	want := []bool{false, false, false, true, true, false, true, true}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fail pattern %v, want %v", got, want)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	in := makeSnips("srcA", 1)[0]
	out, err := decodeNDJSON(EncodeNDJSON(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Source != in.Source || !out.Timestamp.Equal(in.Timestamp) {
		t.Fatalf("identity fields differ: %+v vs %+v", out, in)
	}
	if fmt.Sprint(out.Entities) != fmt.Sprint(in.Entities) {
		t.Fatalf("entities %v != %v", out.Entities, in.Entities)
	}
	if len(out.Terms) != len(in.Terms) {
		t.Fatalf("terms %v != %v", out.Terms, in.Terms)
	}
	if _, err := decodeNDJSON([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := decodeNDJSON([]byte(`{"id":9,"source":"s","ts":"2014-07-17T00:00:00Z"}`)); err == nil {
		t.Fatal("empty snippet validated")
	}
}

func TestManagerLifecycle(t *testing.T) {
	if _, err := NewManager(nil, Config{}); err == nil {
		t.Fatal("nil sink accepted")
	}
	sink := newRecSink(0)
	m, err := NewManager(sink, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewReplay("a", nil, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(NewReplay("a", nil, 0)); err == nil {
		t.Fatal("duplicate source accepted")
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); !errors.Is(err, ErrManagerState) {
		t.Fatalf("double Start: %v", err)
	}
	if err := m.Add(NewReplay("b", nil, 0)); !errors.Is(err, ErrManagerState) {
		t.Fatalf("Add after Start: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); !errors.Is(err, ErrManagerState) {
		t.Fatalf("double Close: %v", err)
	}
}

// makeSnips builds n deterministic snippets for src with IDs 1..n in
// chronological order.
func makeSnips(src string, n int) []*event.Snippet {
	base := time.Date(2014, 7, 17, 0, 0, 0, 0, time.UTC)
	out := make([]*event.Snippet, 0, n)
	for i := 1; i <= n; i++ {
		sn := &event.Snippet{
			ID:        event.SnippetID(i),
			Source:    event.SourceID(src),
			Timestamp: base.Add(time.Duration(i) * time.Minute),
			Entities:  []event.Entity{"ukraine", "mh17"},
			Terms: []event.Term{
				{Token: "crash", Weight: 1},
				{Token: "w" + strconv.Itoa(i%7), Weight: 0.5},
			},
			Document: "http://" + src + "/doc" + strconv.Itoa(i),
		}
		sn.Normalize()
		out = append(out, sn)
	}
	return out
}
