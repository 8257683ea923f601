package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func testMembers(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{Name: fmt.Sprintf("w%d", i+1), URL: fmt.Sprintf("http://w%d", i+1)}
	}
	return out
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, nil); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewRing([]Member{{Name: "", URL: "u"}}, nil); err == nil {
		t.Fatal("nameless member accepted")
	}
	if _, err := NewRing([]Member{{Name: "a", URL: ""}}, nil); err == nil {
		t.Fatal("urlless member accepted")
	}
	ms := []Member{{Name: "a", URL: "u1"}, {Name: "a", URL: "u2"}}
	if _, err := NewRing(ms, nil); err == nil {
		t.Fatal("duplicate member name accepted")
	}
	if _, err := NewRing(testMembers(2), map[string]string{"src": "nope"}); err == nil {
		t.Fatal("pin to unknown member accepted")
	}
}

func TestRingDeterministicAndStable(t *testing.T) {
	r1, err := NewRing(testMembers(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(testMembers(3), nil)
	for i := 0; i < 500; i++ {
		src := fmt.Sprintf("source-%d", i)
		if r1.Owner(src) != r2.Owner(src) {
			t.Fatalf("ownership of %s not deterministic", src)
		}
	}
	// Consistent hashing: growing the ring must move only a bounded
	// share of sources (≈1/(n+1)), not reshuffle everything.
	r4, _ := NewRing(testMembers(4), nil)
	moved := 0
	const total = 2000
	for i := 0; i < total; i++ {
		src := fmt.Sprintf("source-%d", i)
		if r1.Owner(src).Name != r4.Owner(src).Name {
			moved++
		}
	}
	if moved == 0 || moved > total/2 {
		t.Fatalf("adding a member moved %d/%d sources; want a bounded nonzero share", moved, total)
	}
}

func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		r, err := NewRing(testMembers(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		const total = 20000
		for i := 0; i < total; i++ {
			counts[r.Owner(fmt.Sprintf("src-%d", i)).Name]++
		}
		want := total / n
		for name, c := range counts {
			if c < want/2 || c > want*2 {
				t.Fatalf("%d members: %s owns %d of %d (expected ≈%d)", n, name, c, total, want)
			}
		}
	}
}

func TestRingPins(t *testing.T) {
	ms := testMembers(3)
	r, err := NewRing(ms, map[string]string{"hot-source": "w3"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owner("hot-source").Name; got != "w3" {
		t.Fatalf("pinned source owned by %s, want w3", got)
	}
	if pins := r.Pins(); pins["hot-source"] != "w3" {
		t.Fatalf("Pins() = %v", pins)
	}
	// Unpinned sources keep hash placement.
	free, _ := NewRing(ms, nil)
	for i := 0; i < 100; i++ {
		src := fmt.Sprintf("other-%d", i)
		if r.Owner(src) != free.Owner(src) {
			t.Fatalf("pin changed placement of unpinned %s", src)
		}
	}
}

// FuzzMembersPut: PUT /api/cluster/members accepts a body exactly when
// json.Unmarshal of the whole body into the request struct succeeds and
// NewRing accepts the result, swapping in that ring; a rejected body
// leaves the ring as it was. The handler is called directly, so a panic
// is the fuzzer's finding rather than httpx's contained 500.
func FuzzMembersPut(f *testing.F) {
	for _, s := range []string{
		`{"members":[{"name":"b","url":"http://127.0.0.1:2"}]}`,
		`{"members":[{"name":"b","url":"http://127.0.0.1:2"}]} this is not json`,
		`{"members":[{"name":"b","url":"http://127.0.0.1:2"}]} {}`,
		"{\"members\":[{\"name\":\"b\",\"url\":\"http://127.0.0.1:2\"}]}\n\t ",
		`{"MEMBERS":[{"Name":"a","URL":"http://h:1"},{"name":"c","url":"https://h:2"}],"pins":{"s":"c"}}`,
		`{"members":[{"name":"a","url":"http://h:1"}],"pins":{"s":"nope"}}`,
		`{"members":[{"name":"a","url":"ftp://h:1"}]}`,
		`{"members":[]}`, `{"members":[{"name":"a","url":"http://h:1"}]`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	rt, err := NewRouter(Config{Members: testMembers(1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := rt.Ring()
		w := httptest.NewRecorder()
		rt.handleMembersPut(w, httptest.NewRequest(http.MethodPut, "/api/cluster/members", bytes.NewReader(body)))

		var req struct {
			Members []Member          `json:"members"`
			Pins    map[string]string `json:"pins"`
		}
		var want *Ring
		if json.Unmarshal(body, &req) == nil {
			want, _ = NewRing(req.Members, req.Pins)
		}
		switch {
		case (w.Code == http.StatusOK) != (want != nil):
			t.Fatalf("status %d, want accepted = %v: %q", w.Code, want != nil, body)
		case want == nil && rt.Ring() != before:
			t.Fatalf("rejected body swapped the ring: %q", body)
		case want != nil && (!reflect.DeepEqual(rt.Ring().Members(), want.Members()) || !reflect.DeepEqual(rt.Ring().Pins(), want.Pins())):
			t.Fatalf("ring %v %v after PUT, want %v %v: %q", rt.Ring().Members(), rt.Ring().Pins(), want.Members(), want.Pins(), body)
		}
	})
}
