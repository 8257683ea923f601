package httpx

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// The JSON envelope every API handler answers with — the worker's
// (internal/server) and the router's (internal/cluster). One copy, so a
// sharded deployment's merged response is byte-identical to a single
// node's by construction: same indent, same error shape, same page
// clamping. The paged query envelopes, the worker's (EncodePage) and the
// router's (WritePage), come from one hand-written envelope writer that
// lays the page out as the encoder would and splices in results already
// rendered in that layout: the worker's memoised fragments, and the
// bytes a router cuts from the workers' pages. The encoder renders every
// other body.

// Response-path instrumentation; request counting and latency live in
// Instrument.
var (
	metEncodeErrors = obs.GetCounter("storypivot_http_encode_errors_total",
		"responses whose JSON encoding failed before any bytes were sent")
	metWriteErrors = obs.GetCounter("storypivot_http_write_errors_total",
		"responses aborted mid-write (client gone or connection cut)")
)

// Pagination bounds for the query endpoints: requests without a limit
// get DefaultPageLimit results; limit is capped at MaxPageLimit so the
// server never serialises unbounded result sets. deep=1 raises the cap
// to DeepPageLimit — the scatter-gather router must fetch offset+limit
// results per shard to paginate globally, so a deep client page (say
// offset 4500, limit 500) becomes a limit-5000 shard fetch that the
// default cap would truncate, silently corrupting global pagination.
const (
	DefaultPageLimit = 50
	MaxPageLimit     = 500
	DeepPageLimit    = 10000
)

// encoder is one reusable indenting encoder and the buffer it writes
// into. json.Encoder keeps its indent scratch between calls, so a pooled
// pair encodes a body without growing either buffer from empty.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledBuffer caps the buffer a pooled encoder keeps (its indent
// scratch grows to the same size): one deep page must not pin its buffer
// in the pool after the response has gone.
const maxPooledBuffer = 256 << 10

var encoders = sync.Pool{New: func() any {
	e := &encoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// encode renders v into a pooled encoder's buffer, which is valid until
// release. A failed encode is counted and answered with a clean 500.
func encode(w http.ResponseWriter, v any) (*encoder, bool) {
	e := encoders.Get().(*encoder)
	if err := e.enc.Encode(v); err != nil {
		e.release()
		EncodeError(w, err)
		return nil, false
	}
	return e, true
}

// release returns the encoder to the pool with an empty buffer, whatever
// a failed encode left in it, or drops it if its buffer outgrew the cap.
func (e *encoder) release() {
	if e.buf.Cap() > maxPooledBuffer {
		return
	}
	e.buf.Reset()
	encoders.Put(e)
}

// EncodeJSON renders v exactly as WriteJSON would send it: two-space
// indent, HTML escaping, trailing newline. No handler calls it: the paged
// envelopes come from EncodePage and WritePage, every other body from
// WriteJSON. It is the reference those envelope writers are held
// byte-equal to, over the equivalent struct pages. It encodes through a
// pooled encoder and returns one exact-size copy that the caller owns;
// nothing of it aliases the pool. Embedded RawMessage values are
// compacted and re-indented like the rest of the body, whatever layout
// they arrive in, so a fragment comes out byte for byte as the struct it
// was encoded from would. An encoding failure is counted and answered
// with a clean 500 before any byte of a half-written 200 exists; ok is
// then false.
func EncodeJSON(w http.ResponseWriter, v any) (body []byte, ok bool) {
	e, ok := encode(w, v)
	if !ok {
		return nil, false
	}
	body = make([]byte, e.buf.Len())
	copy(body, e.buf.Bytes())
	e.release()
	return body, true
}

// EncodePage renders the paged envelope of a worker's query endpoints,
// {"total", "offset", "limit", "results", ["scores"]}, laid out exactly
// as the encoder lays out the equivalent struct (Results
// []json.RawMessage, Scores []float64 with omitempty). Each result is
// spliced in verbatim, so it must already be in the encoder's layout at
// the results' depth: json.MarshalIndent(v, "    ", "  "), which is how
// the worker memoises its story and snippet fragments. The body is one
// exact-size buffer the caller owns, so a cache can keep it without
// spare capacity. A score the encoder refuses (NaN, ±Inf) is counted and
// answered with a clean 500, as EncodeJSON answers it; ok is then false.
func EncodePage(w http.ResponseWriter, total, offset, limit int, results []*json.RawMessage, scores []float64) (body []byte, ok bool) {
	body, err := encodePage(total, offset, limit, results, scores, false)
	if err != nil {
		EncodeError(w, err)
		return nil, false
	}
	return body, true
}

// WritePage answers 200 with the router's paged envelope
// {"total", "offset", "limit", "results", ["partial"]} laid out as the
// encoder lays out the equivalent struct (Partial bool with omitempty).
// The results are what a router holds after reading the workers' pages:
// the bytes of elements of "results" in bodies EncodePage wrote, so they
// arrive in the layout EncodePage splices.
func WritePage(w http.ResponseWriter, total, offset, limit int, results []*json.RawMessage, partial bool) {
	body, _ := encodePage(total, offset, limit, results, nil, partial) // only a score can fail
	WriteBody(w, http.StatusOK, body)
}

// The fixed bytes of a page, in the encoder's layout.
const (
	pageHead    = "{\n  \"total\": "
	pageOffset  = ",\n  \"offset\": "
	pageLimit   = ",\n  \"limit\": "
	pageResults = ",\n  \"results\": ["
	pageScores  = ",\n  \"scores\": ["
	pageElem    = "\n    " // an element's line start, after the comma that ends the one before
	pageClose   = "\n  ]"
	pagePartial = ",\n  \"partial\": true"
	pageTail    = "\n}\n"
)

// encodePage renders a page into one buffer of exact size: a first pass
// measures every number, the second writes them. The only failure is a
// score the encoder refuses.
func encodePage(total, offset, limit int, results []*json.RawMessage, scores []float64, partial bool) ([]byte, error) {
	var num [32]byte
	size := len(pageHead) + len(pageOffset) + len(pageLimit) + len(pageResults) + len(pageTail) +
		len(strconv.AppendInt(num[:0], int64(total), 10)) +
		len(strconv.AppendInt(num[:0], int64(offset), 10)) +
		len(strconv.AppendInt(num[:0], int64(limit), 10)) +
		arrayLen(len(results))
	for _, r := range results {
		size += len(*r)
	}
	if len(scores) > 0 {
		size += len(pageScores) + arrayLen(len(scores))
		for _, f := range scores {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
			size += len(appendFloat(num[:0], f))
		}
	}
	if partial {
		size += len(pagePartial)
	}
	b := make([]byte, 0, size)
	b = append(b, pageHead...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, pageOffset...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, pageLimit...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, pageResults...)
	for i, r := range results {
		b = appendElemStart(b, i)
		b = append(b, *r...)
	}
	b = appendArrayEnd(b, len(results))
	if len(scores) > 0 {
		b = append(b, pageScores...)
		for i, f := range scores {
			b = appendElemStart(b, i)
			b = appendFloat(b, f)
		}
		b = appendArrayEnd(b, len(scores))
	}
	if partial {
		b = append(b, pagePartial...)
	}
	return append(b, pageTail...), nil
}

// arrayLen is the length of an indented array's punctuation and line
// starts, after its opening bracket, for n elements: what
// appendElemStart and appendArrayEnd write.
func arrayLen(n int) int {
	if n == 0 {
		return len("]")
	}
	return n*len(pageElem) + (n - 1) + len(pageClose)
}

// appendElemStart starts element i of an indented array.
func appendElemStart(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(b, pageElem...)
}

// appendArrayEnd closes an indented array of n elements.
func appendArrayEnd(b []byte, n int) []byte {
	if n > 0 {
		return append(b, pageClose...)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest representation that round-trips, in exponent form below 1e-6
// and from 1e21 up, with a two-digit negative exponent cut to one.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// EncodeError counts a response whose JSON encoding failed and answers it
// with a clean 500. Handlers that encode parts of a response ahead of
// EncodeJSON report their failures through it too.
func EncodeError(w http.ResponseWriter, err error) {
	metEncodeErrors.Inc()
	Error(w, http.StatusInternalServerError, "response encoding failed: "+err.Error())
}

// WriteBody commits an already-encoded JSON body: the status line goes
// out only once a full body exists, and write errors on aborted
// connections are recorded rather than dropped.
func WriteBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		metWriteErrors.Inc()
	}
}

// WriteJSON encodes v completely before touching the connection, so an
// encoding failure becomes a clean 500 instead of a half-written
// response that the instrumentation would count as a success. The body
// goes out straight from the pooled encoder's buffer (an io.Writer may
// not retain what it is given), which then returns to the pool; nothing
// is copied.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	if e, ok := encode(w, v); ok {
		WriteBody(w, code, e.buf.Bytes())
		e.release()
	}
}

// Error answers with the API's error envelope, {"error": msg}, through
// WriteBody like every other response.
func Error(w http.ResponseWriter, code int, msg string) {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]string{"error": msg})
	WriteBody(w, code, buf.Bytes())
}

// PageParams parses offset/limit from already-parsed query values (the
// cached handlers parse r.URL.Query() exactly once per request),
// applying the default and cap. It reports ok=false (after writing the
// error) on malformed values.
func PageParams(w http.ResponseWriter, vals url.Values) (offset, limit int, ok bool) {
	offset, limit = 0, DefaultPageLimit
	if v := vals.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			Error(w, http.StatusBadRequest, "invalid offset parameter")
			return 0, 0, false
		}
		offset = n
	}
	if v := vals.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			Error(w, http.StatusBadRequest, "invalid limit parameter")
			return 0, 0, false
		}
		limit = n
	}
	ceil := MaxPageLimit
	if vals.Get("deep") == "1" {
		ceil = DeepPageLimit
	}
	if limit > ceil {
		limit = ceil
	}
	return offset, limit, true
}
