package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"

	"littletable/internal/core"
	"littletable/internal/metric"
)

// WriteMetrics renders every table's metrics, then the server-level ones,
// in the Prometheus text exposition format, for the daemon's optional
// /metrics endpoint. Meraki monitors shard load to decide splits (§2.2);
// these are the numbers that decision needs.
func (s *Server) WriteMetrics(w io.Writer) {
	tables := s.snapshotTables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name() < tables[j].Name() })
	lists := make([]metric.List, len(tables))
	for i, t := range tables {
		lists[i] = t.Metrics()
	}
	// One family per metric, one sample per table; every list has the
	// families' order because all come from the same declaration.
	for j, f := range core.MetricFamilies() {
		name := f.WriteHeader(w, "littletable_")
		for i, t := range tables {
			fmt.Fprintf(w, "%s{table=%q} %d\n", name, t.Name(), lists[i][j].Value)
		}
	}
	s.Metrics().WriteProm(w, "littletable_")
}

// MetricsHandler returns an http.Handler serving /metrics and /healthz for
// the daemon's -metrics-addr listener.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		closed := s.closed
		n := len(s.tables)
		s.mu.Unlock()
		if closed {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok %d tables\n", n)
	})
	return mux
}
