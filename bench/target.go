package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	storypivot "repro"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/httpx"
	"repro/internal/qcache"
	"repro/internal/server"
)

const clusterWorkers = 3

// The serving stack as cmd/storypivot-server configures it by default,
// except the cache TTL: nothing in a run may fire on a timer, so entries
// leave the cache only by invalidation or capacity.
var (
	stackConfig = httpx.Config{
		MaxInflight:    256,
		RetryAfter:     time.Second,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   8 << 20,
	}
	cacheConfig = qcache.Config{TTL: time.Hour, Shards: 16, MaxEntries: 4096}
)

// node is one server.Server with its handlers and loopback listener.
type node struct {
	name    string
	srv     *server.Server
	preload []*event.Snippet
	bare    http.Handler // Handler(): instrumentation and recovery only
	stack   http.Handler // HandlerWith(stackConfig), possibly traced
	url     string
	stop    func()
}

// target is the system under test: a library pipeline, one server, or a
// router over three workers.
type target struct {
	pipe   *storypivot.Pipeline // ingest-stream only
	nodes  []*node
	router *cluster.Router
	front  http.Handler // what the front listener serves
	url    string       // where clients send
	tracer *tracer      // nil on untraced runs
	stops  []func()
}

func (t *target) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
}

func pipelineOptions(c *corpus) []storypivot.Option {
	return []storypivot.Option{
		storypivot.WithRefinement(true),
		storypivot.WithKnowledgeBase(storypivot.SeedKnowledgeBase()),
		storypivot.WithGazetteer(c.gaz),
	}
}

// listen serves h on a loopback port with the cmd's transport settings.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := httpx.NewServer(ln.Addr().String(), h, httpx.ServerConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// newLibraryTarget opens an empty pipeline over a flat store in dir.
func newLibraryTarget(dir string, tr *tracer) (*target, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := storypivot.New(storypivot.WithStorage(dir), storypivot.WithRefinement(true))
	if err != nil {
		return nil, err
	}
	t := &target{pipe: p, tracer: tr}
	t.stops = append(t.stops, func() { p.Close(); os.RemoveAll(dir) })
	if tr != nil {
		p.Engine().SetResultSink(tr.sink("index.publish", 0, p.Index()))
	}
	return t, nil
}

// newNode builds one server with the cache on, preloads and settles it.
func newNode(c *corpus, name string, shard int, preload []*event.Snippet, tr *tracer, extra ...storypivot.Option) (*node, error) {
	srv, err := server.New(append(pipelineOptions(c), extra...)...)
	if err != nil {
		return nil, err
	}
	n := &node{name: name, srv: srv, preload: preload, stop: func() { srv.Close() }}
	eng := srv.Pipeline().Engine()
	if tr != nil {
		eng.SetResultSink(tr.sink("index.publish", shard, srv.Pipeline().Index()))
	}
	srv.EnableCache(cacheConfig)
	if tr != nil {
		// EnableCache attached the cache invalidator right behind the
		// index; a marker behind that brackets it from outside.
		eng.AddResultSink(tr.marker("qcache.invalidate", shard))
	}
	for _, sn := range preload {
		if err := srv.Pipeline().Ingest(sn); err != nil {
			srv.Close()
			return nil, fmt.Errorf("preload %s: %w", name, err)
		}
	}
	srv.Pipeline().Result()
	n.bare = srv.Handler()
	n.stack = srv.HandlerWith(stackConfig)
	if tr != nil {
		n.stack = tr.handler(name+".handler", shard, n.stack)
	}
	return n, nil
}

func newServerTarget(c *corpus, preload []*event.Snippet, tr *tracer) (*target, error) {
	n, err := newNode(c, "server", 0, preload, tr)
	if err != nil {
		return nil, err
	}
	t := &target{nodes: []*node{n}, front: n.stack, tracer: tr}
	t.stops = append(t.stops, n.stop)
	url, stop, err := listen(n.stack)
	if err != nil {
		t.close()
		return nil, err
	}
	n.url, t.url = url, url
	t.stops = append(t.stops, stop)
	return t, nil
}

// shardOf pins sources to workers round-robin in sorted order.
func shardOf(c *corpus) map[event.SourceID]int {
	out := make(map[event.SourceID]int, len(c.sources))
	for i, src := range c.sources {
		out[src] = i % clusterWorkers
	}
	return out
}

func newClusterTarget(c *corpus, preload []*event.Snippet, tr *tracer) (*target, error) {
	t := &target{tracer: tr}
	owner := shardOf(c)
	parts := make([][]*event.Snippet, clusterWorkers)
	for _, sn := range preload {
		parts[owner[sn.Source]] = append(parts[owner[sn.Source]], sn)
	}
	var members []cluster.Member
	for w := 0; w < clusterWorkers; w++ {
		n, err := newNode(c, fmt.Sprintf("w%d", w), w, parts[w], tr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		t.stops = append(t.stops, n.stop)
		url, stop, err := listen(n.stack)
		if err != nil {
			t.close()
			return nil, err
		}
		n.url = url
		t.stops = append(t.stops, stop)
		members = append(members, cluster.Member{Name: n.name, URL: url})
	}
	pins := make(map[string]string, len(owner))
	for src, w := range owner {
		pins[string(src)] = t.nodes[w].name
	}
	// The router is never started: its health prober and feed
	// coordinator are timers. A shard timeout longer than any settle
	// keeps a stalled shard from turning into a partial response.
	rt, err := cluster.NewRouter(cluster.Config{
		Members: members,
		Pins:    pins,
		Client:  cluster.ClientConfig{Timeout: time.Minute},
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = rt
	t.stops = append(t.stops, rt.Close)
	t.front = rt.HandlerWith(stackConfig)
	if tr != nil {
		t.front = tr.handler("router.handler", -1, t.front)
	}
	url, stop, err := listen(t.front)
	if err != nil {
		t.close()
		return nil, err
	}
	t.url = url
	t.stops = append(t.stops, stop)
	return t, nil
}

// integrated returns every shard's settled integrated stories.
func (t *target) integrated() [][]*event.IntegratedStory {
	if t.pipe != nil {
		return [][]*event.IntegratedStory{t.pipe.Result().Integrated()}
	}
	out := make([][]*event.IntegratedStory, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.srv.Pipeline().Result().Integrated()
	}
	return out
}

// ingested sums the snippets the engines accepted.
func (t *target) ingested() uint64 {
	if t.pipe != nil {
		return t.pipe.Engine().Ingested()
	}
	var n uint64
	for _, nd := range t.nodes {
		n += nd.srv.Pipeline().Engine().Ingested()
	}
	return n
}
