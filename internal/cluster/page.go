package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// Page is a worker's paged query envelope (server.SearchPageView /
// TimelinePageView) held as the bytes it arrived in.
type Page struct {
	Total   int
	Scores  []float64
	Results []Result
}

// Result is one element of a page's "results": its bytes, a sub-slice of
// the page's body, and the keys the merge orders by. A worker encodes its
// results at the nesting depth the router's envelope puts them at, so
// those bytes are exactly what a single node would emit in the merged
// page, and the router splices them through untouched.
//
// The keys are read as decoding the element into struct{ID uint64;
// Timestamp time.Time} reads them: the top-level "id" and "timestamp"
// members, null or absent leaving them zero. BadID and BadTime report
// that such a decode would fail on the one or the other; a merge leaves
// such a result out.
type Result struct {
	Bytes          []byte
	ID             uint64
	Time           time.Time
	BadID, BadTime bool
}

// parsePage reads a shard page without decoding its results. It rejects
// every body that decoding into the page struct
// ({total, offset, limit int; results []json.RawMessage;
// scores []float64; partial bool}) would reject: the body is validated
// once with json.Valid, and then the envelope's members are type-checked
// as that decode would check them, keys matched the way encoding/json
// matches field names. A body that is not an object is rejected too.
func parsePage(body []byte) (Page, error) {
	var p Page
	if !json.Valid(body) {
		return p, errors.New("shard page is not valid JSON")
	}
	s := scanner{b: body}
	s.ws()
	if body[s.i] != '{' {
		return p, errors.New("shard page is not an object")
	}
	s.i++
	for {
		key, ok := s.member()
		if !ok {
			return p, nil
		}
		var err error
		switch {
		case keyIs(key, "total"):
			p.Total, err = s.int(p.Total)
		case keyIs(key, "offset"), keyIs(key, "limit"):
			_, err = s.int(0)
		case keyIs(key, "partial"):
			err = s.bool()
		case keyIs(key, "scores"):
			p.Scores, err = s.floats(p.Scores)
		case keyIs(key, "results"):
			p.Results, err = s.results(p.Results)
		default:
			s.value()
		}
		if err != nil {
			return Page{}, err
		}
	}
}

// scanner walks JSON that json.Valid has accepted, so it checks no
// syntax: it only tracks strings and nesting depth to find where values
// start and end.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// str steps over the string starting at s.i: to the first quote that an
// even run of backslashes precedes.
func (s *scanner) str() {
	s.i++
	for {
		s.i += bytes.IndexByte(s.b[s.i:], '"')
		escaped := false
		for k := s.i - 1; s.b[k] == '\\'; k-- {
			escaped = !escaped
		}
		s.i++
		if !escaped {
			return
		}
	}
}

// value steps over the value starting at s.i and returns its span.
func (s *scanner) value() (start, end int) {
	start = s.i
	depth := 0
	for {
		switch s.b[s.i] {
		case '"':
			s.str()
			if depth == 0 {
				return start, s.i
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				s.i++
				return start, s.i
			}
		default:
			if depth == 0 {
				for s.i < len(s.b) && !delim(s.b[s.i]) {
					s.i++
				}
				return start, s.i
			}
		}
		s.i++
	}
}

// delim reports whether c ends a number or literal.
func delim(c byte) bool {
	switch c {
	case ',', '}', ']', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// member steps to the next member of the object being walked, which
// starts just past its '{' or just past the previous member's value. It
// returns the member's key, still escaped, with the scanner on the
// value; ok is false, and the scanner past the closing brace, when the
// object has no more members.
func (s *scanner) member() (key []byte, ok bool) {
	s.ws()
	if s.b[s.i] == ',' {
		s.i++
		s.ws()
	}
	if s.b[s.i] == '}' {
		s.i++
		return nil, false
	}
	start := s.i
	s.str()
	key = s.b[start+1 : s.i-1]
	s.ws()
	s.i++ // ':'
	s.ws()
	return key, true
}

// elem steps to the next element of the array being walked, the
// array-side twin of member.
func (s *scanner) elem() bool {
	s.ws()
	if s.b[s.i] == ',' {
		s.i++
		s.ws()
	}
	if s.b[s.i] == ']' {
		s.i++
		return false
	}
	return true
}

// int reads an int member as encoding/json would: null leaves it at
// prev, any other value must be an integer literal in range.
func (s *scanner) int(prev int) (int, error) {
	start, end := s.value()
	v := s.b[start:end]
	if v[0] == 'n' {
		return prev, nil
	}
	if !number(v[0]) {
		return 0, errors.New("shard page: non-number where an integer belongs")
	}
	return strconv.Atoi(string(v))
}

func (s *scanner) bool() error {
	start, _ := s.value()
	switch s.b[start] {
	case 't', 'f', 'n':
		return nil
	}
	return errors.New("shard page: non-boolean partial")
}

// floats reads a []float64 member into dst's storage: null gives nil,
// a null element 0.
func (s *scanner) floats(dst []float64) ([]float64, error) {
	if s.b[s.i] == 'n' {
		s.value()
		return nil, nil
	}
	if s.b[s.i] != '[' {
		return nil, errors.New("shard page: scores is not an array")
	}
	s.i++
	dst = dst[:0]
	for s.elem() {
		start, end := s.value()
		v := s.b[start:end]
		var f float64
		switch {
		case v[0] == 'n':
		case number(v[0]):
			var err error
			if f, err = strconv.ParseFloat(string(v), 64); err != nil {
				return nil, err
			}
		default:
			return nil, errors.New("shard page: non-number score")
		}
		dst = append(dst, f)
	}
	return dst, nil
}

// results reads a []json.RawMessage member into dst's storage: null
// gives nil.
func (s *scanner) results(dst []Result) ([]Result, error) {
	if s.b[s.i] == 'n' {
		s.value()
		return nil, nil
	}
	if s.b[s.i] != '[' {
		return nil, errors.New("shard page: results is not an array")
	}
	s.i++
	dst = dst[:0]
	for s.elem() {
		dst = append(dst, s.result())
	}
	return dst, nil
}

// result steps over the result starting at s.i, reading its keys on the
// way.
func (s *scanner) result() Result {
	start := s.i
	var r Result
	switch s.b[s.i] {
	case '{':
		s.i++
	case 'n':
		s.value()
		r.Bytes = s.b[start:s.i:s.i]
		return r
	default:
		s.value()
		return Result{Bytes: s.b[start:s.i:s.i], BadID: true, BadTime: true}
	}
	for {
		key, ok := s.member()
		if !ok {
			r.Bytes = s.b[start:s.i:s.i]
			return r
		}
		switch {
		case keyIs(key, "id"):
			vs, ve := s.value()
			if v := s.b[vs:ve]; v[0] != 'n' {
				id, err := strconv.ParseUint(string(v), 10, 64)
				r.ID, r.BadID = id, r.BadID || err != nil
			}
		case keyIs(key, "timestamp"):
			vs, ve := s.value()
			if r.Time.UnmarshalJSON(s.b[vs:ve]) != nil {
				r.BadTime = true
			}
		default:
			s.value()
		}
	}
}

func number(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// keyIs reports whether an object key, still escaped, names a struct
// field as encoding/json matches them: exactly, or else under
// bytes.EqualFold once unescaped.
func keyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	if bytes.IndexByte(key, '\\') >= 0 {
		var buf [64]byte
		key = unescape(buf[:0], key)
	}
	return strings.EqualFold(string(key), name)
}

// unescape appends the JSON string body b with its escapes resolved, as
// encoding/json unquotes it: a lone surrogate becomes U+FFFD.
func unescape(dst, b []byte) []byte {
	for i := 0; i < len(b); {
		c := b[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		c = b[i+1]
		i += 2
		switch c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(b[i:])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := utf8.RuneError
				if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
					r2 = hex4(b[i+2:])
				}
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					r = dec
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, r)
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
	}
	return dst
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
