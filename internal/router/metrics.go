package router

import (
	"fmt"
	"io"
	"net/http"
)

// WriteMetrics renders the router's counters and per-shard health in the
// Prometheus text exposition format, mirroring the server's /metrics.
func (r *Router) WriteMetrics(w io.Writer) {
	st := r.statsResult()
	st.Counters.WriteProm(w, "littletable_router_")
	fmt.Fprintf(w, "# HELP littletable_router_shard_state Shard health as probed (0 up, 1 draining, 2 down)\n")
	fmt.Fprintf(w, "# TYPE littletable_router_shard_state gauge\n")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "littletable_router_shard_state{shard=%q} %d\n", sh.Addr, sh.State)
	}
}

// MetricsHandler serves /metrics and /healthz, matching the daemon's
// conventions.
func (r *Router) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		// The router is healthy while at least one shard is reachable.
		up, _ := r.upShards()
		if len(up) == 0 {
			http.Error(w, "all shards down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok (%d/%d shards up)\n", len(up), len(r.shards))
	})
	return mux
}
