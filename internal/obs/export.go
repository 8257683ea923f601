package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled buckets plus _sum and
// _count. Output is sorted by metric name so scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.RUnlock()

	// Registered names may carry an inline label set ("foo{member=\"w0\"}"
	// — the registry's way of spelling per-entity series without a label
	// API). HELP/TYPE lines must name the bare metric family exactly
	// once, so strip the label clause and deduplicate; the sorted order
	// groups a family's series together.
	seenFamily := make(map[string]bool)
	meta := func(name, help, typ string) {
		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		if seenFamily[fam] {
			return
		}
		seenFamily[fam] = true
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", fam, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
	}
	for _, name := range sortedNames(counters) {
		c := counters[name]
		meta(name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	}
	for _, name := range sortedNames(gauges) {
		g := gauges[name]
		meta(name, g.help, "gauge")
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	}
	for _, name := range sortedNames(hists) {
		h := hists[name]
		snap := h.Snapshot()
		if h.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h.help)
		}
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, b := range bucketBounds {
			cum += snap.Buckets[i]
			bound := secondsBound(b)
			if !isFinite(bound) {
				continue
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
		}
		cum += snap.Buckets[numBuckets-1]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, secondsBound(snap.Sum))
		fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
	}
}

// formatBound renders a le bound without trailing zeros ("0.005", not
// "5e-03"), matching common Prometheus client output.
func formatBound(f float64) string {
	return trimZeros(fmt.Sprintf("%.9f", f))
}

func trimZeros(s string) string {
	i := len(s)
	for i > 0 && s[i-1] == '0' {
		i--
	}
	if i > 0 && s[i-1] == '.' {
		i--
	}
	return s[:i]
}

// Handler returns the /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// vars is the expvar view of a registry: a JSON object with counters,
// gauges, and per-histogram {count, mean_ns, p50_ns, p95_ns, p99_ns}.
func (r *Registry) vars() interface{} {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]interface{}, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		snap := h.Snapshot()
		out[name] = map[string]interface{}{
			"count":   snap.Count,
			"mean_ns": int64(snap.Mean()),
			"p50_ns":  int64(snap.Quantile(0.50)),
			"p95_ns":  int64(snap.Quantile(0.95)),
			"p99_ns":  int64(snap.Quantile(0.99)),
		}
	}
	return out
}

var publishOnce sync.Once

// PublishExpvar exposes the Default registry under the "storypivot"
// expvar key (served by expvar's /debug/vars handler). Safe to call any
// number of times; expvar registration is process-global, hence the
// once.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("storypivot", expvar.Func(Default.vars))
	})
}

// DebugMux returns a mux exposing the full observability surface of the
// Default registry:
//
//	/metrics          Prometheus text format
//	/debug/vars       expvar JSON (includes the "storypivot" key)
//	/debug/pprof/...  runtime profiles
//
// Mount it on a dedicated listener (cmd flag --metrics-addr) or merge
// its routes into an existing mux.
func DebugMux() *http.ServeMux {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", Default.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug/metrics listener that participates in
// graceful shutdown.
type DebugServer struct {
	srv  *http.Server
	addr string
	errc chan error
}

// StartDebug binds addr and serves the debug mux on it in the
// background. Binding happens synchronously, so a taken port surfaces
// here rather than minutes later from a goroutine; runtime serve
// failures arrive on Err.
func StartDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
		srv: &http.Server{
			Handler:           DebugMux(),
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		addr: ln.Addr().String(),
		errc: make(chan error, 1),
	}
	go func() {
		err := d.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		d.errc <- err
	}()
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Err reports a serve failure (nil after a clean Shutdown).
func (d *DebugServer) Err() <-chan error { return d.errc }

// Shutdown stops the listener, letting in-flight scrapes finish until
// ctx expires.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	return d.srv.Shutdown(ctx)
}
