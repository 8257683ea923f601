package main

import (
	"bufio"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/stream"
)

// opHeader carries the client's op index to the handler wrapper, so the
// server-side span of a request names the op that caused it.
const opHeader = "X-Bench-Op"

// span is one timed interval at a public boundary. Times are nanoseconds
// since the tracer's epoch. parent is the index of the enclosing span:
// set when recorded where the caller is known, otherwise resolved from
// the op index or by time containment when the trace is analysed.
type span struct {
	name       int32
	shard      int32 // worker index; -1 for client- and router-side spans
	op         int32 // client op index; -1 when the boundary cannot see it
	parent     int32
	start, end int64
}

// tracer keeps every span of a traced run in memory and writes them out
// at exit. Recording is a slot claim by atomic add plus a store.
type tracer struct {
	epoch time.Time
	// on gates the per-request spans (client ops and handlers); it
	// alternates through the measured phase. measuring gates the rare
	// ones (sinks, library calls), which stay on for the whole phase:
	// one alignment pass outlasts many blocks, and its spans must not
	// be cut in half.
	on        atomic.Bool
	measuring atomic.Bool

	mu    sync.Mutex
	names []string

	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	// notify, when set (the onion's router replay), receives every
	// worker's handler span as it is recorded: a worker records its span
	// after it has answered, so the router's caller cannot find it in
	// spans by the time the router returns.
	notify atomic.Pointer[chan span]

	// lastSink is, per shard, when the previous sink of the current
	// alignment publish returned (0: nothing timed); the marker sink
	// consumes it. Publishes of one engine are serial under its mutex.
	lastSink [clusterWorkers]int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) name(s string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.names {
		if n == s {
			return int32(i)
		}
	}
	t.names = append(t.names, s)
	return int32(len(t.names) - 1)
}

// add records a span and returns its index, or -1 when the buffer is
// full. Callers consult on (or measuring) before timing anything: while
// on is false the per-request wrappers pass straight through, which is
// what the untraced blocks of a traced run are compared against.
func (t *tracer) add(name, shard, op, parent int32, start, end int64) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, shard: shard, op: op, parent: parent, start: start, end: end}
	return int32(i)
}

func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// timedSink times a result sink's Publish from outside.
type timedSink struct {
	t     *tracer
	name  int32
	shard int32
	inner stream.ResultSink
}

func (t *tracer) sink(name string, shard int, inner stream.ResultSink) stream.ResultSink {
	return &timedSink{t: t, name: t.name(name), shard: int32(shard), inner: inner}
}

func (s *timedSink) Publish(res *align.Result) {
	if !s.t.measuring.Load() {
		s.inner.Publish(res)
		return
	}
	start := s.t.now()
	s.inner.Publish(res)
	end := s.t.now()
	s.t.lastSink[s.shard] = end
	s.t.add(s.name, s.shard, -1, -1, start, end)
}

// markerSink sits behind a sink that cannot be wrapped (the cache
// invalidator server.EnableCache attaches itself) and records the
// interval since the previous sink returned.
type markerSink struct {
	t     *tracer
	name  int32
	shard int32
}

func (t *tracer) marker(name string, shard int) stream.ResultSink {
	return &markerSink{t: t, name: t.name(name), shard: int32(shard)}
}

func (s *markerSink) Publish(*align.Result) {
	if last := s.t.lastSink[s.shard]; last != 0 {
		s.t.add(s.name, s.shard, -1, -1, last, s.t.now())
		s.t.lastSink[s.shard] = 0
	}
}

// handler times an http.Handler from outside.
func (t *tracer) handler(name string, shard int, inner http.Handler) http.Handler {
	id := t.name(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		op := int32(-1)
		if v := r.Header.Get(opHeader); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				op = int32(n)
			}
		}
		start := t.now()
		inner.ServeHTTP(w, r)
		end := t.now()
		t.add(id, int32(shard), op, -1, start, end)
		if ch := t.notify.Load(); ch != nil && shard >= 0 {
			*ch <- span{name: id, shard: int32(shard), op: op, parent: -1, start: start, end: end}
		}
	})
}

// write stores the trace as {"names": [...], "spans": [[name, shard,
// op, parent, start_ns, end_ns], ...]}.
func (t *tracer) write(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"fields":["name","shard","op","parent","start_ns","end_ns"],"names":[`)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\n\"spans\":[\n")
	var buf []byte
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		for j, v := range [...]int64{int64(s.name), int64(s.shard), int64(s.op), int64(s.parent), s.start, s.end} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
