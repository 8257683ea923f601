package httpx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// freshJSON is the oracle the pooled encoder must match: a new indenting
// encoder per body, as EncodeJSON built before it pooled them.
func freshJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("fresh encoder: %v", err)
	}
	return buf.Bytes()
}

func raw(s string) *json.RawMessage {
	m := json.RawMessage(s)
	return &m
}

// encodeTable covers what the API encodes: page envelopes splicing
// compact pre-encoded fragments, strings HTML escaping and UTF-8 must
// survive, nil and empty slices, nested maps, and one body larger than
// the pool keeps.
func encodeTable() map[string]any {
	type page struct {
		Total   int                `json:"total"`
		Offset  int                `json:"offset"`
		Results []*json.RawMessage `json:"results"`
		Partial bool               `json:"partial,omitempty"`
	}
	return map[string]any{
		"page of fragments": page{Total: 2, Results: []*json.RawMessage{
			raw(`{"id":7,"title":"MH17 <crash> & aftermath","sources":["nyt","wsj"],"score":0.25}`),
			raw(`{"id":9,"snippets":[{"id":1,"text":"Zürich — 東京"},{"id":2,"entities":[]}],"extent":null}`),
		}},
		"empty page":        page{Results: []*json.RawMessage{}},
		"markup":            map[string]string{"error": "bad <query> & \"more\"", "html": "<script>alert('x')</script>"},
		"non-ascii":         []string{"Zürich", "東京", "Кыив", "emoji 🛩", "  "},
		"nil slice":         map[string]any{"results": []string(nil)},
		"empty slice":       map[string]any{"results": []string{}},
		"nested maps":       map[string]any{"b": map[string]any{"z": []int{1, 2}, "a": map[string]int{"y": 1, "x": 2}}, "a": nil},
		"scalar":            3.5,
		"larger than kept":  strings.Repeat("x<y>", maxPooledBuffer/2),
		"fragment in a map": map[string]*json.RawMessage{"story": raw(`{"a":[1,{"b":"<c>"}]}`)},
	}
}

// TestPooledEncodeMatchesFreshEncoder: EncodeJSON's body, and WriteJSON's
// response with its Content-Length, equal a fresh encoder's output byte
// for byte, whatever the pool held before.
func TestPooledEncodeMatchesFreshEncoder(t *testing.T) {
	for round := 0; round < 2; round++ { // the second round reuses pooled encoders
		for name, v := range encodeTable() {
			want := freshJSON(t, v)
			rec := httptest.NewRecorder()
			body, ok := EncodeJSON(rec, v)
			if !ok || !bytes.Equal(body, want) {
				t.Fatalf("%s: EncodeJSON = %q (ok %v), want %q", name, body, ok, want)
			}
			if len(body) != cap(body) {
				t.Fatalf("%s: EncodeJSON's body has len %d, cap %d: not an exact-size copy", name, len(body), cap(body))
			}
			rec = httptest.NewRecorder()
			WriteJSON(rec, http.StatusCreated, v)
			if rec.Code != http.StatusCreated || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: WriteJSON = %d %q, want 201 %q", name, rec.Code, rec.Body, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("%s: Content-Length %q, want %d", name, cl, len(want))
			}
		}
	}
}

// TestPooledEncodeDoesNotAlias: a body EncodeJSON returned, as the cache
// stores it, is unchanged by every encode after it.
func TestPooledEncodeDoesNotAlias(t *testing.T) {
	first := map[string]any{"results": []string{"first", "body"}}
	body, ok := EncodeJSON(httptest.NewRecorder(), first)
	if !ok {
		t.Fatal("EncodeJSON failed")
	}
	kept := bytes.Clone(body)
	for i := 0; i < 50; i++ {
		v := map[string]any{"results": []string{strings.Repeat("later", i), strconv.Itoa(i)}}
		if i%2 == 0 {
			EncodeJSON(httptest.NewRecorder(), v)
		} else {
			WriteJSON(httptest.NewRecorder(), http.StatusOK, v)
		}
	}
	if !bytes.Equal(body, kept) {
		t.Fatalf("a returned body changed under later encodes: %q, was %q", body, kept)
	}
}

// TestPooledEncodeFailureLeavesNoResidue: a value encoding/json rejects
// is answered with the 500 error envelope and counted, and leaves nothing
// of itself in the next body the pool encodes.
func TestPooledEncodeFailureLeavesNoResidue(t *testing.T) {
	bad := []any{
		math.NaN(),
		map[string]any{"before": strings.Repeat("partial ", 64), "after": math.Inf(1)},
	}
	for _, v := range bad {
		before := metEncodeErrors.Value()
		rec := httptest.NewRecorder()
		if body, ok := EncodeJSON(rec, v); ok || body != nil {
			t.Fatalf("EncodeJSON(%v) = %q, %v; want nil, false", v, body, ok)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "response encoding failed") {
			t.Fatalf("failed encode answered %d %q, want the 500 envelope", rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("WriteJSON of a failing value answered %d, want 500", rec.Code)
		}
		if got := metEncodeErrors.Value(); got != before+2 {
			t.Fatalf("encode errors moved by %d, want 2", got-before)
		}
		next := map[string]string{"status": "ok"}
		if body, _ := EncodeJSON(httptest.NewRecorder(), next); !bytes.Equal(body, freshJSON(t, next)) {
			t.Fatalf("the body after a failed encode = %q, want %q", body, freshJSON(t, next))
		}
		rec = httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, next)
		if !bytes.Equal(rec.Body.Bytes(), freshJSON(t, next)) {
			t.Fatalf("the response after a failed encode = %q, want %q", rec.Body, freshJSON(t, next))
		}
	}
}

// TestPooledEncodeConcurrent runs eight goroutines through EncodeJSON and
// WriteJSON at once, each with values of its own, under -race in CI.
func TestPooledEncodeConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		v := map[string]any{"worker": g, "results": []string{strings.Repeat(fmt.Sprintf("<w%d>", g), 16*(g+1))}}
		want := freshJSON(t, v)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept [][]byte
			for i := 0; i < rounds; i++ {
				body, ok := EncodeJSON(httptest.NewRecorder(), v)
				if !ok || !bytes.Equal(body, want) {
					errs <- fmt.Errorf("EncodeJSON = %q, want %q", body, want)
					return
				}
				kept = append(kept, body)
				rec := httptest.NewRecorder()
				WriteJSON(rec, http.StatusOK, v)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					errs <- fmt.Errorf("WriteJSON = %q, want %q", rec.Body, want)
					return
				}
			}
			for _, body := range kept {
				if !bytes.Equal(body, want) {
					errs <- fmt.Errorf("a kept body changed to %q", body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWritePageMatchesEncoder: WritePage's body equals EncodeJSON of the
// equivalent struct page, whose results the encoder re-indents, for
// results rendered in the encoder's layout at the results' depth (as a
// router holds them, cut from a worker's body); and rendering a page
// allocates once, whatever the number of results.
func TestWritePageMatchesEncoder(t *testing.T) {
	type page struct {
		Total   int               `json:"total"`
		Offset  int               `json:"offset"`
		Limit   int               `json:"limit"`
		Results []json.RawMessage `json:"results"`
		Partial bool              `json:"partial,omitempty"`
	}
	// atDepth renders v as the encoder lays out an element of "results".
	atDepth := func(v any) []byte {
		b, err := json.MarshalIndent(v, "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	story := map[string]any{
		"id": 7, "title": "MH17 <crash> & \"aftermath\"\u2028", "sources": []string{"nyt", "wsj"},
		"members": []any{map[string]any{"id": 1, "entities": []any{}}, []int{1, 2}}, "extent": nil,
	}
	var many [][]byte
	for i := 0; i < 100; i++ {
		many = append(many, atDepth(map[string]any{"id": i, "text": fmt.Sprint("snippet ", i, " Zürich")}))
	}
	for _, tc := range []struct {
		name                 string
		total, offset, limit int
		results              [][]byte
	}{
		{"zero results", 0, 0, 10, nil},
		{"zero results past the end", 12, 100000, 5, [][]byte{}},
		{"one result", 1, 0, 10, [][]byte{atDepth(story)}},
		{"scalar results", 3, 1, 3, [][]byte{atDepth(1.5), atDepth("x<y>"), atDepth(nil)}},
		{"many results", 1 << 20, 40, 100, many},
		{"max ints", math.MaxInt, math.MaxInt, math.MaxInt, [][]byte{atDepth(story)}},
	} {
		for _, partial := range []bool{false, true} {
			raws := make([]json.RawMessage, 0, len(tc.results))
			for _, r := range tc.results {
				raws = append(raws, r)
			}
			want, ok := EncodeJSON(httptest.NewRecorder(), page{tc.total, tc.offset, tc.limit, raws, partial})
			if !ok {
				t.Fatal("encode failed")
			}
			rec := httptest.NewRecorder()
			WritePage(rec, tc.total, tc.offset, tc.limit, tc.results, partial)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
				t.Fatalf("%s partial=%v: status %d, Content-Length %s, want 200, %d",
					tc.name, partial, rec.Code, rec.Header().Get("Content-Length"), len(want))
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s partial=%v:\n%s\nencoder:\n%s", tc.name, partial, got, want)
			}
		}
	}
	for _, n := range []int{0, 1, len(many)} {
		if a := testing.AllocsPerRun(100, func() { encodePage(n, 0, n, many[:n], true) }); a != 1 {
			t.Errorf("a page of %d results allocates %v times, want 1", n, a)
		}
	}
}
