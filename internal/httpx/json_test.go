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
	"testing/quick"
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

// pageStruct is the struct page the hand-written envelope must match: a
// router's page (Partial) or a worker's (Scores), never both at once.
type pageStruct struct {
	Total   int               `json:"total"`
	Offset  int               `json:"offset"`
	Limit   int               `json:"limit"`
	Results []json.RawMessage `json:"results"`
	Scores  []float64         `json:"scores,omitempty"`
	Partial bool              `json:"partial,omitempty"`
}

// atDepth renders v as the encoder lays out an element of "results".
func atDepth(t testing.TB, v any) *json.RawMessage {
	t.Helper()
	b, err := json.MarshalIndent(v, "    ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return (*json.RawMessage)(&b)
}

// TestWritePageMatchesEncoder: the envelope writer's body equals
// EncodeJSON of the equivalent struct page, whose results the encoder
// re-indents, for results rendered in the encoder's layout at the
// results' depth (as a worker memoises them and a router cuts them from
// a worker's body). Router pages (WritePage, with and without partial)
// and worker pages (EncodePage, scored in the encoder's float format
// and unscored) alike; every body is one allocation of exact size,
// whatever the number of results and scores.
func TestWritePageMatchesEncoder(t *testing.T) {
	story := map[string]any{
		"id": 7, "title": "MH17 <crash> & \"aftermath\"\u2028", "sources": []string{"nyt", "wsj"},
		"members": []any{map[string]any{"id": 1, "entities": []any{}}, []int{1, 2}}, "extent": nil,
	}
	var many []*json.RawMessage
	for i := 0; i < 100; i++ {
		many = append(many, atDepth(t, map[string]any{"id": i, "text": fmt.Sprint("snippet ", i, " Zürich")}))
	}
	pages := []struct {
		name                 string
		total, offset, limit int
		results              []*json.RawMessage
	}{
		{"zero results", 0, 0, 10, nil},
		{"zero results past the end", 12, 100000, 5, []*json.RawMessage{}},
		{"one result", 1, 0, 10, []*json.RawMessage{atDepth(t, story)}},
		{"scalar results", 3, 1, 3, []*json.RawMessage{atDepth(t, 1.5), atDepth(t, "x<y>"), atDepth(t, nil)}},
		{"many results", 1 << 20, 40, 100, many},
		{"max ints", math.MaxInt, math.MaxInt, math.MaxInt, []*json.RawMessage{atDepth(t, story)}},
		{"negative ints", -1, math.MinInt, -10, []*json.RawMessage{atDepth(t, story)}},
	}
	// check compares a written body with the encoder's body for want.
	check := func(t *testing.T, name string, body []byte, want pageStruct) {
		t.Helper()
		enc, ok := EncodeJSON(httptest.NewRecorder(), want)
		if !ok {
			t.Fatalf("%s: encode failed", name)
		}
		if !bytes.Equal(body, enc) {
			t.Fatalf("%s:\n%s\nencoder:\n%s", name, body, enc)
		}
		if cap(body) != len(body) {
			t.Fatalf("%s: body of %d bytes has capacity %d, want exact size", name, len(body), cap(body))
		}
	}
	derefAll := func(rs []*json.RawMessage) []json.RawMessage {
		out := make([]json.RawMessage, 0, len(rs))
		for _, r := range rs {
			out = append(out, *r)
		}
		return out
	}

	t.Run("unscored", func(t *testing.T) {
		for _, tc := range pages {
			for _, partial := range []bool{false, true} {
				name := fmt.Sprintf("%s partial=%v", tc.name, partial)
				want := pageStruct{Total: tc.total, Offset: tc.offset, Limit: tc.limit, Results: derefAll(tc.results), Partial: partial}
				body, err := encodePage(tc.total, tc.offset, tc.limit, tc.results, nil, partial)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(t, name, body, want)
				rec := httptest.NewRecorder()
				WritePage(rec, tc.total, tc.offset, tc.limit, tc.results, partial)
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) ||
					!bytes.Equal(rec.Body.Bytes(), body) {
					t.Fatalf("%s: WritePage answered %d, Content-Length %s, want 200, %d:\n%s",
						name, rec.Code, rec.Header().Get("Content-Length"), len(body), rec.Body)
				}
				if !partial {
					body, ok := EncodePage(httptest.NewRecorder(), tc.total, tc.offset, tc.limit, tc.results, nil)
					if !ok {
						t.Fatalf("%s: EncodePage failed", name)
					}
					check(t, name+" (EncodePage)", body, want)
				}
			}
		}
	})

	t.Run("scored", func(t *testing.T) {
		scoreSets := [][]float64{
			nil, {}, {0}, {-3.5}, {1}, {1e-7}, {123456789.125}, {1e21}, {-1e-9},
			{math.Copysign(0, -1), 0.1, 1e-6, 9.999999e-7, 1e20, 1e-300, math.MaxFloat64, -math.SmallestNonzeroFloat64, 2.5e-10},
		}
		for _, tc := range pages {
			for _, scores := range scoreSets {
				name := fmt.Sprintf("%s scores=%v", tc.name, scores)
				body, ok := EncodePage(httptest.NewRecorder(), tc.total, tc.offset, tc.limit, tc.results, scores)
				if !ok {
					t.Fatalf("%s: EncodePage failed", name)
				}
				check(t, name, body, pageStruct{Total: tc.total, Offset: tc.offset, Limit: tc.limit, Results: derefAll(tc.results), Scores: scores})
			}
		}
		// Scores paired with the results, as a worker answers scores=1.
		scores := make([]float64, len(many))
		for i := range scores {
			scores[i] = 1 / float64(i+3)
		}
		body, ok := EncodePage(httptest.NewRecorder(), 1<<20, 0, len(many), many, scores)
		if !ok {
			t.Fatal("EncodePage failed")
		}
		check(t, "many scored results", body, pageStruct{Total: 1 << 20, Limit: len(many), Results: derefAll(many), Scores: scores})
	})

	scores := make([]float64, len(many))
	for i := range scores {
		scores[i] = -1.0 / float64(i+7)
	}
	for _, n := range []int{0, 1, len(many)} {
		if a := testing.AllocsPerRun(100, func() { encodePage(n, 0, n, many[:n], nil, true) }); a != 1 {
			t.Errorf("a page of %d results allocates %v times, want 1", n, a)
		}
		if a := testing.AllocsPerRun(100, func() { encodePage(n, 0, n, many[:n], scores[:n], false) }); a != 1 {
			t.Errorf("a scored page of %d results allocates %v times, want 1", n, a)
		}
	}
}

// TestEncodePageRefusesNonFiniteScores: a NaN or infinite score is
// answered as the encoder answers it, with the counted 500 envelope and
// the encoder's own error text, and no body.
func TestEncodePageRefusesNonFiniteScores(t *testing.T) {
	results := []*json.RawMessage{atDepth(t, 1), atDepth(t, 2)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		before := metEncodeErrors.Value()
		rec := httptest.NewRecorder()
		body, ok := EncodePage(rec, 2, 0, 10, results, []float64{0.5, bad})
		if ok || body != nil {
			t.Fatalf("score %v: EncodePage succeeded: %s", bad, body)
		}
		oracle := httptest.NewRecorder()
		if _, ok := EncodeJSON(oracle, pageStruct{Total: 2, Limit: 10, Results: []json.RawMessage{*results[0], *results[1]}, Scores: []float64{0.5, bad}}); ok {
			t.Fatalf("score %v: the encoder accepted it", bad)
		}
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != oracle.Body.String() {
			t.Fatalf("score %v: answered %d %q, the encoder %d %q", bad, rec.Code, rec.Body, oracle.Code, oracle.Body)
		}
		if got := metEncodeErrors.Value(); got != before+2 {
			t.Fatalf("score %v: encode errors moved by %d, want 2 (one each)", bad, got-before)
		}
	}
}

// TestAppendFloatMatchesEncoder: for random finite float64 bit patterns,
// the page writer's float format equals json.Marshal's.
func TestAppendFloatMatchesEncoder(t *testing.T) {
	same := func(bits uint64) bool {
		f := math.Float64frombits(bits)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%v (bits %#x): wrote %s, encoder %s", f, bits, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 200000}); err != nil {
		t.Fatal(err)
	}
	// The format boundaries, which random bit patterns rarely hit.
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-6, -1e21, 1e-7, 1e-10, 1e100, 5e-324, math.MaxFloat64} {
		same(math.Float64bits(f))
	}
}
