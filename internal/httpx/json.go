package httpx

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// The JSON envelope every API handler answers with — the worker's
// (internal/server) and the router's (internal/cluster). One copy, so a
// sharded deployment's merged response is byte-identical to a single
// node's by construction: same indent, same error shape, same page
// clamping. The encoder renders every body; WritePage, beside it, is the
// router's paged envelope written in the encoder's layout around result
// bytes the workers' encoders already rendered.

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
// indent, HTML escaping, trailing newline. Split out so a cache can store
// the encoded bytes and later serve them — or a 304 — without re-running
// the encoder. It encodes through a pooled encoder and returns one
// exact-size copy that the caller owns; nothing of it aliases the pool.
// Embedded RawMessage values may arrive compact, as the worker's
// pre-encoded story and snippet fragments do. The one indent pass
// re-tokenises them like the rest of the body, so a fragment comes out
// byte for byte as the struct it was encoded from would. An encoding
// failure is counted and answered with a clean 500 before any byte of a
// half-written 200 exists; ok is then false.
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

// WritePage answers 200 with the paged envelope
// {"total", "offset", "limit", "results", ["partial"]} laid out exactly
// as the encoder lays out the equivalent struct (Results
// []json.RawMessage, Partial bool with omitempty). Each result is spliced
// in verbatim, so it must already be in the encoder's layout at the
// results' depth: the bytes of one element of "results" in a body this
// package encoded, which is what a router holds after reading the
// workers' pages.
func WritePage(w http.ResponseWriter, total, offset, limit int, results [][]byte, partial bool) {
	WriteBody(w, http.StatusOK, encodePage(total, offset, limit, results, partial))
}

// encodePage renders WritePage's body into one buffer, allocated once
// at an upper bound of its size.
func encodePage(total, offset, limit int, results [][]byte, partial bool) []byte {
	const (
		head    = "{\n  \"total\": "
		elem    = "\n    " // a result's line start, after the comma that ends the one before
		tail    = "\n  ]"
		partTag = ",\n  \"partial\": true"
		// the fixed bytes, the three ints at their widest, and the
		// trailing "\n}\n"
		fixed = len(head) + len(",\n  \"offset\": ") + len(",\n  \"limit\": ") +
			len(",\n  \"results\": [") + len(tail) + len(partTag) + 3*20 + 3
	)
	size := fixed
	for _, r := range results {
		size += len(",") + len(elem) + len(r)
	}
	b := make([]byte, 0, size)
	b = append(b, head...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, ",\n  \"offset\": "...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, ",\n  \"limit\": "...)
	b = strconv.AppendInt(b, int64(limit), 10)
	b = append(b, ",\n  \"results\": ["...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, elem...)
		b = append(b, r...)
	}
	if len(results) > 0 {
		b = append(b, tail...)
	} else {
		b = append(b, ']')
	}
	if partial {
		b = append(b, partTag...)
	}
	return append(b, "\n}\n"...)
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
