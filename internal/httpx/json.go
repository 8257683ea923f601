package httpx

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
)

// The JSON envelope every API handler answers with — the worker's
// (internal/server) and the router's (internal/cluster). One copy, so a
// sharded deployment's merged response is byte-identical to a single
// node's by construction: same indent, same error shape, same page
// clamping.

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

// EncodeJSON renders v exactly as WriteJSON would send it: two-space
// indent, trailing newline. Split out so a cache can store the encoded
// bytes and later serve them — or a 304 — without re-running the
// encoder. (json.Indent re-tokenises embedded RawMessage contents, so a
// router's worker-encoded members come out in canonical form.) An
// encoding failure is counted and answered with a clean 500 before any
// byte of a half-written 200 exists; ok is then false.
func EncodeJSON(w http.ResponseWriter, v any) (body []byte, ok bool) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		metEncodeErrors.Inc()
		Error(w, http.StatusInternalServerError, "response encoding failed: "+err.Error())
		return nil, false
	}
	return buf.Bytes(), true
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
// response that the instrumentation would count as a success.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	if body, ok := EncodeJSON(w, v); ok {
		WriteBody(w, code, body)
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
