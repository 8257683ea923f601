package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
)

// decodedPage is the struct the router used to decode shard pages into,
// the oracle parsePage must agree with.
type decodedPage struct {
	Total   int               `json:"total"`
	Offset  int               `json:"offset"`
	Limit   int               `json:"limit"`
	Results []json.RawMessage `json:"results"`
	Scores  []float64         `json:"scores,omitempty"`
	Partial bool              `json:"partial,omitempty"`
}

// awkward strings a result may carry: escapes the encoder writes
// (quotes, backslashes, U+2028/2029, control characters, <>&) and UTF-8.
var awkward = []string{
	`say "hi"`, `back\slash`, "line\u2028sep\u2029", "tab\tnew\nline\x01", "<b>&amp;</b>",
	"Zürich — 東京", "", "{[\"]}", "emoji 🛩",
}

// randValue builds a random JSON value up to depth d: objects, nested
// arrays, strings from awkward, numbers and literals.
func randValue(rng *rand.Rand, d int) any {
	switch k := rng.Intn(8); {
	case d > 0 && k < 2:
		m := map[string]any{}
		for i := rng.Intn(4); i > 0; i-- {
			m[awkward[rng.Intn(len(awkward))]+fmt.Sprint(i)] = randValue(rng, d-1)
		}
		return m
	case d > 0 && k < 4:
		a := make([]any, rng.Intn(4))
		for i := range a {
			a[i] = randValue(rng, d-1)
		}
		return a
	case k < 5:
		return awkward[rng.Intn(len(awkward))]
	case k < 6:
		return rng.NormFloat64() * 1e6
	case k < 7:
		return rng.Intn(2) == 0
	default:
		return nil
	}
}

// randResult is one result as a worker might render it: an object with
// an id and a timestamp beside random members.
func randResult(rng *rand.Rand) json.RawMessage {
	m := map[string]any{
		"id":        rng.Uint64(),
		"timestamp": time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(time.FixedZone("", 3600*(rng.Intn(25)-12))),
		"text":      awkward[rng.Intn(len(awkward))],
		"nested":    randValue(rng, 4),
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

// encodedPage renders a random envelope through httpx, as a worker does.
func encodedPage(t testing.TB, rng *rand.Rand, n int) []byte {
	t.Helper()
	env := decodedPage{Total: rng.Intn(1 << 20), Offset: rng.Intn(100), Limit: rng.Intn(500) + 1, Results: []json.RawMessage{}}
	switch rng.Intn(4) {
	case 0:
		env.Total = math.MaxInt
	case 1:
		env.Results = nil
	}
	for i := 0; i < n; i++ {
		env.Results = append(env.Results, randResult(rng))
		if n%2 == 0 {
			env.Scores = append(env.Scores, rng.ExpFloat64())
		}
	}
	env.Partial = rng.Intn(2) == 0
	body, ok := httpx.EncodeJSON(httptest.NewRecorder(), env)
	if !ok {
		t.Fatal("encode failed")
	}
	return body
}

// agree reports where a parsed page differs from the decoded one.
func agree(p Page, d decodedPage) error {
	if p.Total != d.Total {
		return fmt.Errorf("total %d, decoder %d", p.Total, d.Total)
	}
	if len(p.Results) != len(d.Results) {
		return fmt.Errorf("%d results, decoder %d", len(p.Results), len(d.Results))
	}
	for i := range p.Results {
		if !bytes.Equal(p.Results[i].Bytes, d.Results[i]) {
			return fmt.Errorf("result %d:\n%s\ndecoder:\n%s", i, p.Results[i].Bytes, d.Results[i])
		}
	}
	return nil
}

// TestParsePageMatchesDecoder: on pages encoded the way workers encode
// them, parsePage returns the total, the scores and the result bytes the
// decode into the page struct gives; every truncation of such a page is
// rejected, and so is every type error the decoder rejects.
func TestParsePageMatchesDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 7, 10, 64, 500}
	for iter := 0; iter < 200; iter++ {
		n := sizes[iter%len(sizes)]
		body := encodedPage(t, rng, n)
		var d decodedPage
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		p, err := parsePage(body)
		if err != nil {
			t.Fatalf("page %d rejected: %v\n%s", iter, err, body)
		}
		if err := agree(p, d); err != nil {
			t.Fatalf("page %d: %v", iter, err)
		}
		if len(p.Scores) != len(d.Scores) {
			t.Fatalf("page %d: %d scores, decoder %d", iter, len(p.Scores), len(d.Scores))
		}
		for i := range p.Scores {
			if math.Float64bits(p.Scores[i]) != math.Float64bits(d.Scores[i]) {
				t.Fatalf("page %d: score %d = %v, decoder %v", iter, i, p.Scores[i], d.Scores[i])
			}
		}
		for i, res := range p.Results {
			if err := keysAgree(res); err != nil {
				t.Fatalf("page %d result %d: %v", iter, i, err)
			}
		}
		if n > 10 {
			continue // the truncation sweep is quadratic in the body
		}
		value := bytes.TrimRight(body, "\n")
		for cut := 0; cut < len(value); cut++ {
			if _, err := parsePage(value[:cut]); err == nil {
				t.Fatalf("page %d truncated at %d/%d accepted:\n%s", iter, cut, len(value), value[:cut])
			}
		}
	}

	for _, body := range []string{
		`{"total": "3", "results": []}`,
		`{"total": 1.5, "results": []}`,
		`{"total": 1e3, "results": []}`,
		`{"total": 99999999999999999999, "results": []}`,
		`{"TOTAL": true, "results": []}`,
		`{"tot\u0061l": [], "results": []}`,
		`{"offset": {}, "results": []}`,
		`{"Limit": "10", "results": []}`,
		`{"partial": 1, "results": []}`,
		`{"partial": "true", "results": []}`,
		`{"results": {}}`,
		`{"results": "[]"}`,
		`{"RESULTS": 5}`,
		`{"scores": [true], "results": []}`,
		`{"scores": [[1]], "results": []}`,
		`{"scores": [1e400], "results": []}`,
		`{"ſcores": {}, "results": []}`,
		`{"\u0053cores": "x", "results": []}`,
		`[{"total": 1}]`,
		`"page"`,
		`{"total": 1,}`,
		`{"total": 1} {}`,
		``,
	} {
		if json.Unmarshal([]byte(body), new(decodedPage)) == nil {
			t.Fatalf("oracle accepts %s", body)
		}
		if _, err := parsePage([]byte(body)); err == nil {
			t.Errorf("accepted a body the decoder rejects: %s", body)
		}
	}
}

// TestParsePageSyntaxMatchesDecoder: parsePage checks the syntax itself,
// so it accepts exactly the bodies the decode into the page struct
// accepts at the edges of the grammar: nesting depth, escapes, raw
// control bytes, the number grammar, literals, separators and trailing
// bytes, in the members it reads and in those it only steps over.
func TestParsePageSyntaxMatchesDecoder(t *testing.T) {
	// nest(n) is a value nested n deep, arrays and objects alternating.
	nest := func(n int) string {
		v := strings.Repeat(`[{"k":`, n/2) + "1" + strings.Repeat(`}]`, n/2)
		if n%2 == 1 {
			v = "[" + v + "]"
		}
		return v
	}
	bodies := []string{
		"", " ", "\n\t\r ", `{}`, `{"results":[]}`, `{} `, "{}\n\t", `{} x`, `{} {}`, "{}\x00", "\xef\xbb\xbf{}",
		`{"total":1 "limit":2}`, `{"total" 1}`, `{:1}`, `{"x":}`, `{"x"}`, `{'x':1}`, `{"a":1]`, `{"a":[1}}`,
		`{"results":[1 2]}`, `{"results":[{"x":[1 2]}]}`, `{"results":[{"x" 1}]}`, `{"results":[{"x":{"a":1 "b":2}}]}`,
		`{"results":[{"x":[1,]}]}`, `{"results":[{"x":{"a":1,}}]}`, `{"results":[{"x":[,1]}]}`, `{"results":[{"x":{,}}]}`,
		`{"results":[1,]}`, `{"results":[{},]}`, `{"x":[1,,2]}`, `{"results":[{"id":1,"id":2,}]}`,
		"{\"results\":[{\"t\":{\"a\":\"x\ty\"}}]}", "{\"results\":[{\"t\":[\"\x01\"]}]}", "{\"x\":\"a\nb\"}", "{\"x\":\"\x7f\"}",
		`{"tot\x61l":1}`, `{"\u00":1}`, `{"\u12G4":1}`, `{"tot\u0061l":1}`, "{\"\xff\":1}", "{\"results\":[\"\xff\xfe\"],\"x\":\"\xc3\"}",
		`{"x":` + nest(9999) + `}`, `{"x":` + nest(10000) + `}`,
		`{"results":[` + nest(9998) + `]}`, `{"results":[` + nest(9999) + `]}`,
		`{"results":[{"id":1,"t":` + nest(9997) + `}]}`, `{"results":[{"id":1,"t":` + nest(9998) + `}]}`,
		`{"scores":[` + nest(9998) + `]}`, `{"scores":[` + nest(9999) + `]}`,
	}
	for _, v := range []string{
		`0`, `-0`, `01`, `-01`, `1.`, `.5`, `1e`, `1E+`, `1e-5`, `1E+5`, `-`, `+1`, `0.0`, `1.5e3`, `1.e3`, `0x10`, `1e400`,
		`null`, `nulll`, `nul`, `true`, `tru`, `falsey`, `false`, `True`, `NaN`,
		`"\x"`, `"\u12G4"`, `"\u12"`, `"\u12`, `"\uABCD"`, `"\ud800\udc00"`, `"\/\b\f\n\r\t\"\\"`, `"\`, `"`, `"\'"`,
	} {
		bodies = append(bodies,
			`{"x":`+v+`}`, `{"total":`+v+`}`, `{"scores":[`+v+`]}`,
			`{"results":[`+v+`]}`, `{"results":[{"y":[`+v+`]}]}`, `{"results":[{"id":`+v+`}]}`)
	}
	for _, body := range bodies {
		p, perr := parsePage([]byte(body))
		var d decodedPage
		derr := json.Unmarshal([]byte(body), &d)
		show := body
		if len(show) > 80 {
			show = show[:40] + "…" + show[len(show)-40:]
		}
		if (perr == nil) != (derr == nil) {
			t.Errorf("%q: parsePage error %v, decoder error %v", show, perr, derr)
			continue
		}
		if perr == nil {
			if err := agree(p, d); err != nil {
				t.Errorf("%q: %v", show, err)
			}
		}
	}
}

// FuzzParsePage: parsePage rejects every body the decode into the page
// struct rejects, and where both accept they agree on the total and the
// result bytes.
func FuzzParsePage(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 3} {
		f.Add(encodedPage(f, rng, n))
	}
	for _, s := range []string{
		`{"total":7,"offset":0,"limit":1,"results":[{"id":1}],"scores":[0.5]}`,
		`{"Total": 2, "RESULTS": [null, 1, "x", [1, {"a": []}]], "scores": null}`,
		`{"tot\u0061l": 4, "re\u0073ults": [], "\ud800": 1}`,
		`{"results": [1], "results": null, "total": 3, "total": null}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, perr := parsePage(body)
		var d decodedPage
		derr := json.Unmarshal(body, &d)
		if derr != nil {
			if perr == nil {
				t.Fatalf("accepted a body the decoder rejects (%v): %q", derr, body)
			}
			return
		}
		if perr == nil {
			if err := agree(p, d); err != nil {
				t.Fatalf("%v: %q", err, body)
			}
			for _, res := range p.Results {
				if err := keysAgree(res); err != nil {
					t.Fatalf("%v: %q", err, body)
				}
			}
		}
	})
}

// keysAgree reports where a result's keys differ from decoding its bytes
// into the structs the ranked and the timeline merges decoded results
// into.
func keysAgree(res Result) error {
	var idOnly struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(res.Bytes, &idOnly); res.BadID != (err != nil) || err == nil && res.ID != idOnly.ID {
		return fmt.Errorf("%s: id %d (bad %v), decoder %d (%v)", res.Bytes, res.ID, res.BadID, idOnly.ID, err)
	}
	var keys struct {
		ID        uint64    `json:"id"`
		Timestamp time.Time `json:"timestamp"`
	}
	err := json.Unmarshal(res.Bytes, &keys)
	if bad := res.BadID || res.BadTime; bad != (err != nil) || err == nil && !res.Time.Equal(keys.Timestamp) {
		return fmt.Errorf("%s: keys (%d, %v, bad %v), decoder (%d, %v, %v)", res.Bytes, res.ID, res.Time, bad, keys.ID, keys.Timestamp, err)
	}
	return nil
}

// TestResultKeysMatchDecoder covers the result shapes a worker never
// sends but a merge must treat as the decoder did: null ids and
// timestamps, unparseable keys, non-object results, duplicate and
// case-folded keys.
func TestResultKeysMatchDecoder(t *testing.T) {
	for _, res := range []string{
		`null`, `{}`, `[1]`, `"x"`, `7`, `true`,
		`{"id": null, "timestamp": null}`,
		`{"id": 12, "timestamp": "2014-07-17T16:20:00+02:00"}`,
		`{"ID": 12, "TimeStamp": "2014-07-17T14:20:00.5Z"}`,
		`{"\u0069d": 3}`,
		`{"id": -1}`, `{"id": 1.5}`, `{"id": "4"}`, `{"id": 18446744073709551616}`,
		`{"id": 2, "id": 5}`, `{"id": "x", "id": 5}`, `{"id": 5, "id": null}`,
		`{"id": 1, "timestamp": "17 July 2014"}`,
		`{"id": 1, "timestamp": 1405606800}`,
		`{"id": 1, "timestamp": "2014-07-17T14:20:00\u005a"}`,
		`{"nested": {"id": 9, "timestamp": "x"}, "id": 8}`,
	} {
		p, err := parsePage([]byte(`{"results": [` + res + `]}`))
		if err != nil {
			t.Fatalf("%s: %v", res, err)
		}
		if err := keysAgree(p.Results[0]); err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkParsePage reads pages of 10, 100 and 540 results (540 the
// deepest timeline limit a shard is asked for: offset+limit full rows).
func BenchmarkParsePage(b *testing.B) {
	for _, n := range []int{10, 100, 540} {
		body := encodedPage(b, rand.New(rand.NewSource(int64(n))), n)
		b.Run(fmt.Sprintf("results=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parsePage(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
