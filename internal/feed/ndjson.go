package feed

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/event"
)

// NDJSON wire format: one JSON object per line. This is the shape of
// EventRegistry/GDELT-style extraction repositories served over HTTP —
// the feed's cursor maps to a line offset, so any static file server
// with range-ish semantics (or the NDJSONSource below) can back it.
type wireSnippet struct {
	ID        uint64     `json:"id"`
	Source    string     `json:"source"`
	Timestamp time.Time  `json:"ts"`
	Entities  []string   `json:"entities,omitempty"`
	Terms     []wireTerm `json:"terms,omitempty"`
	Text      string     `json:"text,omitempty"`
	Document  string     `json:"doc,omitempty"`
}

type wireTerm struct {
	Token  string  `json:"t"`
	Weight float64 `json:"w"`
}

// EncodeNDJSON renders one snippet as its NDJSON line (no newline).
func EncodeNDJSON(sn *event.Snippet) []byte {
	w := wireSnippet{
		ID:        uint64(sn.ID),
		Source:    string(sn.Source),
		Timestamp: sn.Timestamp,
		Text:      sn.Text,
		Document:  sn.Document,
	}
	for _, e := range sn.Entities {
		w.Entities = append(w.Entities, string(e))
	}
	for _, t := range sn.Terms {
		w.Terms = append(w.Terms, wireTerm{Token: t.Token, Weight: t.Weight})
	}
	b, _ := json.Marshal(w)
	return b
}

// decodeNDJSON parses one line into a validated, normalized snippet.
func decodeNDJSON(line []byte) (*event.Snippet, error) {
	var w wireSnippet
	if err := json.Unmarshal(line, &w); err != nil {
		return nil, err
	}
	sn := &event.Snippet{
		ID:        event.SnippetID(w.ID),
		Source:    event.SourceID(w.Source),
		Timestamp: w.Timestamp,
		Text:      w.Text,
		Document:  w.Document,
	}
	for _, e := range w.Entities {
		sn.Entities = append(sn.Entities, event.Entity(e))
	}
	for _, t := range w.Terms {
		sn.Terms = append(sn.Terms, event.Term{Token: t.Token, Weight: t.Weight})
	}
	sn.Normalize()
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	return sn, nil
}

// feedDoneHeader marks a response that exhausted the currently
// available data (the fetcher reports Done and falls back to polling).
const feedDoneHeader = "X-Feed-Done"

// HTTPFetcher pulls NDJSON batches from a URL speaking the offset/limit
// protocol of NDJSONSource: GET url?offset=N&limit=M returns up to M
// lines starting at line N, with X-Feed-Done: true when the response
// reaches the current end of stream. An endpoint that sends more than M
// lines is cut at M, and the next fetch resumes after them. Undecodable
// lines are returned as Malformed — the transport succeeding while
// individual records are garbage is the normal failure mode of real
// feeds.
type HTTPFetcher struct {
	src    event.SourceID
	url    string
	client *http.Client
}

// NewHTTPFetcher creates an NDJSON fetcher. A nil client uses a
// dedicated default client (no global state; per-fetch deadlines come
// from the runner's context).
func NewHTTPFetcher(src event.SourceID, rawURL string, client *http.Client) *HTTPFetcher {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPFetcher{src: src, url: rawURL, client: client}
}

// Source implements Fetcher.
func (h *HTTPFetcher) Source() event.SourceID { return h.src }

// Fetch implements Fetcher.
func (h *HTTPFetcher) Fetch(ctx context.Context, cursor string, limit int) (Batch, error) {
	offset := 0
	if cursor != "" {
		n, err := strconv.Atoi(cursor)
		if err != nil || n < 0 {
			return Batch{}, fmt.Errorf("feed: bad http cursor %q", cursor)
		}
		offset = n
	}
	u, err := url.Parse(h.url)
	if err != nil {
		return Batch{}, err
	}
	q := u.Query()
	q.Set("offset", strconv.Itoa(offset))
	q.Set("limit", strconv.Itoa(limit))
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return Batch{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return Batch{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Batch{}, fmt.Errorf("feed: %s answered %s", h.src, resp.Status)
	}
	b := Batch{Done: resp.Header.Get(feedDoneHeader) == "true"}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if lines == limit {
			// The body goes on past the limit, so this batch does not
			// reach the end of the stream, whatever the header says.
			b.Done = false
			break
		}
		line := sc.Bytes()
		if len(line) == 0 {
			lines++ // blank lines advance the cursor but carry nothing
			continue
		}
		sn, derr := decodeNDJSON(line)
		if derr != nil {
			b.Malformed = append(b.Malformed, Malformed{
				Raw:    append([]byte(nil), line...),
				Reason: derr.Error(),
			})
		} else {
			b.Snippets = append(b.Snippets, sn)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		// A transport error mid-body (server died between lines) fails
		// the whole fetch: the cursor stays put and the batch is
		// redelivered, rather than acknowledging a truncated read.
		return Batch{}, fmt.Errorf("feed: reading %s body: %w", h.src, err)
	}
	if lines == 0 {
		b.Done = true
	}
	b.Next = strconv.Itoa(offset + lines)
	return b, nil
}

// NDJSONSource is an in-process NDJSON feed endpoint: an append-only
// sequence of lines served with the offset/limit protocol. Tests and
// the feed demo wrap it in faults.Injector middleware to produce every
// transport failure deterministically; AppendRaw plants malformed
// records for DLQ scenarios.
type NDJSONSource struct {
	mu    sync.Mutex
	lines [][]byte
}

// Append encodes snippets onto the stream.
func (s *NDJSONSource) Append(sns ...*event.Snippet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sn := range sns {
		s.lines = append(s.lines, EncodeNDJSON(sn))
	}
}

// AppendRaw appends one verbatim line (e.g. garbage for DLQ tests).
func (s *NDJSONSource) AppendRaw(line []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = append(s.lines, append([]byte(nil), line...))
}

// Len returns the number of lines currently in the stream.
func (s *NDJSONSource) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lines)
}

// ServeHTTP implements the offset/limit NDJSON protocol.
func (s *NDJSONSource) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, _ := strconv.Atoi(q.Get("offset"))
	limit, _ := strconv.Atoi(q.Get("limit"))
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		limit = 64
	}
	s.mu.Lock()
	total := len(s.lines)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	batch := make([][]byte, end-offset)
	copy(batch, s.lines[offset:end])
	s.mu.Unlock()
	if end == total {
		w.Header().Set(feedDoneHeader, "true")
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, line := range batch {
		w.Write(line)
		w.Write([]byte{'\n'})
	}
}
