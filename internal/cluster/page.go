package cluster

import (
	"bytes"
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
// scores []float64; partial bool}) would reject: one pass checks the
// syntax json.Valid checks while it finds the values' spans, and the
// envelope's members are type-checked as that decode would check them,
// keys matched the way encoding/json matches field names. A body that is
// not an object is rejected too.
func parsePage(body []byte) (Page, error) {
	var p Page
	s := scanner{b: body}
	s.ws()
	if s.i == len(body) || body[s.i] != '{' {
		return p, errors.New("shard page is not an object")
	}
	if err := s.open(); err != nil {
		return p, err
	}
	for {
		key, more, err := s.member()
		if err != nil {
			return Page{}, err
		}
		if !more {
			break
		}
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
			_, err = s.value()
		}
		if err != nil {
			return Page{}, err
		}
	}
	if s.ws(); s.i != len(body) {
		return Page{}, errSyntax
	}
	return p, nil
}

var errSyntax = errors.New("shard page is not valid JSON")

// maxDepth is encoding/json's nesting limit: objects and arrays together
// may nest this deep and no deeper.
const maxDepth = 10000

// scanner walks a JSON body, checking its syntax as encoding/json's
// scanner does, and stops on the first error.
type scanner struct {
	b     []byte
	i     int
	depth int
}

// space and plain classify bytes for the two hot loops: whitespace, and
// string bytes that need no look (not a quote, a backslash or a control
// byte; invalid UTF-8 is valid in a JSON string, as encoding/json reads it).
var space, plain [256]bool

func init() {
	for _, c := range " \t\n\r" {
		space[c] = true
	}
	for c := 0x20; c < 256; c++ {
		plain[c] = c != '"' && c != '\\'
	}
}

func (s *scanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && space[b[i]] {
		i++
	}
	s.i = i
}

// open steps into the object or array whose opening byte is at s.i.
func (s *scanner) open() error {
	s.i++
	if s.depth++; s.depth > maxDepth {
		return errSyntax
	}
	return nil
}

// str steps over the string starting at s.i, checking its escapes and
// that it holds no control byte.
func (s *scanner) str() error {
	b, i := s.b, s.i+1
	for {
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i == len(b) || b[i] < 0x20 {
			return errSyntax
		}
		if b[i] == '"' {
			s.i = i + 1
			return nil
		}
		if i++; i == len(b) {
			return errSyntax
		}
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i++
		case 'u':
			if i+5 > len(b) {
				return errSyntax
			}
			for _, c := range b[i+1 : i+5] {
				if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
					return errSyntax
				}
			}
			i += 5
		default:
			return errSyntax
		}
	}
}

// num steps over the number starting at s.i: -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)?. What follows it is the caller's to check.
func (s *scanner) num() error {
	b, i := s.b, s.i
	if b[i] == '-' {
		i++
	}
	switch {
	case i == len(b) || !digit(b[i]):
		return errSyntax
	case b[i] == '0':
		i++
	default:
		i = digits(b, i)
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !digit(b[i]) {
			return errSyntax
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !digit(b[i]) {
			return errSyntax
		}
		i = digits(b, i)
	}
	s.i = i
	return nil
}

func digit(c byte) bool { return '0' <= c && c <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && digit(b[i]) {
		i++
	}
	return i
}

// value steps over the value starting at s.i, checking its syntax, and
// returns its bytes. member and elem leave the scanner on a byte.
func (s *scanner) value() ([]byte, error) {
	start := s.i
	var err error
	switch s.b[start] {
	case '"':
		err = s.str()
	case '{':
		err = s.open()
		for more := true; more && err == nil; {
			if _, more, err = s.member(); more && err == nil {
				_, err = s.value()
			}
		}
	case '[':
		err = s.open()
		for more := true; more && err == nil; {
			if more, err = s.elem(); more && err == nil {
				_, err = s.value()
			}
		}
	case 't':
		err = s.lit("true")
	case 'f':
		err = s.lit("false")
	case 'n':
		err = s.lit("null")
	default:
		err = s.num()
	}
	return s.b[start:s.i], err
}

// lit steps over the literal word starting at s.i.
func (s *scanner) lit(word string) error {
	if !bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		return errSyntax
	}
	s.i += len(word)
	return nil
}

// member steps to the next member of the object being walked, which
// starts just past its '{' or just past the previous member's value. It
// checks the separator, the key and the colon, and returns the key, still
// escaped, with the scanner on the value; more is false, and the scanner
// past the closing brace, when the object has no more members.
func (s *scanner) member() (key []byte, more bool, err error) {
	// A value never ends in '{', so this is the first member's turn.
	first := s.b[s.i-1] == '{'
	if more, err = s.next('}', first); !more || err != nil {
		return nil, more, err
	}
	start := s.i
	if s.b[start] != '"' {
		return nil, false, errSyntax
	}
	if err := s.str(); err != nil {
		return nil, false, err
	}
	key = s.b[start+1 : s.i-1]
	if s.ws(); s.i == len(s.b) || s.b[s.i] != ':' {
		return nil, false, errSyntax
	}
	s.i++
	if s.ws(); s.i == len(s.b) {
		return nil, false, errSyntax
	}
	return key, true, nil
}

// elem steps to the next element of the array being walked, the
// array-side twin of member.
func (s *scanner) elem() (more bool, err error) {
	return s.next(']', s.b[s.i-1] == '[')
}

// next steps over the whitespace and the comma before the next member or
// element, or over the closer that ends the container instead.
func (s *scanner) next(closer byte, first bool) (bool, error) {
	s.ws()
	if s.i == len(s.b) {
		return false, errSyntax
	}
	if s.b[s.i] == closer {
		s.i++
		s.depth--
		return false, nil
	}
	if !first {
		if s.b[s.i] != ',' {
			return false, errSyntax
		}
		s.i++
		s.ws()
		if s.i == len(s.b) {
			return false, errSyntax
		}
	}
	return true, nil
}

// int reads an int member as encoding/json would: null leaves it at
// prev, any other value must be an integer literal in range.
func (s *scanner) int(prev int) (int, error) {
	v, err := s.value()
	switch {
	case err != nil:
		return 0, err
	case v[0] == 'n':
		return prev, nil
	case !number(v[0]):
		return 0, errors.New("shard page: non-number where an integer belongs")
	}
	return strconv.Atoi(string(v))
}

func (s *scanner) bool() error {
	v, err := s.value()
	if err != nil {
		return err
	}
	switch v[0] {
	case 't', 'f', 'n':
		return nil
	}
	return errors.New("shard page: non-boolean partial")
}

// floats reads a []float64 member into dst's storage: null gives nil,
// a null element 0.
func (s *scanner) floats(dst []float64) ([]float64, error) {
	if ok, err := s.array("scores"); !ok || err != nil {
		return nil, err
	}
	dst = dst[:0]
	for {
		more, err := s.elem()
		if !more || err != nil {
			return dst, err
		}
		v, err := s.value()
		if err != nil {
			return nil, err
		}
		var f float64
		switch {
		case v[0] == 'n':
		case number(v[0]):
			if f, err = strconv.ParseFloat(string(v), 64); err != nil {
				return nil, err
			}
		default:
			return nil, errors.New("shard page: non-number score")
		}
		dst = append(dst, f)
	}
}

// results reads a []json.RawMessage member into dst's storage: null
// gives nil.
func (s *scanner) results(dst []Result) ([]Result, error) {
	if ok, err := s.array("results"); !ok || err != nil {
		return nil, err
	}
	dst = dst[:0]
	for {
		more, err := s.elem()
		if !more || err != nil {
			return dst, err
		}
		r, err := s.result()
		if err != nil {
			return nil, err
		}
		dst = append(dst, r)
	}
}

// array steps into the array member starting at s.i, as decoding it
// into a slice would: ok is false, and the member stepped over, when it
// is null.
func (s *scanner) array(name string) (ok bool, err error) {
	switch s.b[s.i] {
	case 'n':
		_, err := s.value()
		return false, err
	case '[':
		return true, s.open()
	}
	return false, errors.New("shard page: " + name + " is not an array")
}

// result steps over the result starting at s.i, reading its keys on the
// way.
func (s *scanner) result() (Result, error) {
	start := s.i
	if s.b[start] != '{' {
		v, err := s.value()
		bad := s.b[start] != 'n'
		return Result{Bytes: v[:len(v):len(v)], BadID: bad, BadTime: bad}, err
	}
	var r Result
	if err := s.open(); err != nil {
		return r, err
	}
	for {
		key, more, err := s.member()
		if err != nil {
			return r, err
		}
		if !more {
			r.Bytes = s.b[start:s.i:s.i]
			return r, nil
		}
		v, err := s.value()
		if err != nil {
			return r, err
		}
		switch {
		case keyIs(key, "id"):
			if v[0] != 'n' {
				id, err := strconv.ParseUint(string(v), 10, 64)
				r.ID, r.BadID = id, r.BadID || err != nil
			}
		case keyIs(key, "timestamp"):
			if r.Time.UnmarshalJSON(v) != nil {
				r.BadTime = true
			}
		}
	}
}

func number(c byte) bool { return c == '-' || digit(c) }

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
