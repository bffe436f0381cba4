// Command littletabled runs the LittleTable server: an independent process
// owning a directory of tables and serving the wire protocol over TCP
// (§3.1). Applications connect through the client adaptor or the ltsql
// shell.
//
// Usage:
//
//	littletabled -root /var/lib/littletable -addr :9155
//
// On SIGINT/SIGTERM the server drains: it stops accepting connections,
// lets in-flight requests finish (up to -drain-timeout), then closes. By
// default it does NOT flush in-memory tablets on shutdown — the
// durability contract is that recently-written data is re-readable from
// its source (§2.3.4) — but -flush-on-exit opts into a clean flush.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"littletable"
)

func main() {
	var (
		root        = flag.String("root", "./littletable-data", "data directory (one subdirectory per table)")
		addr        = flag.String("addr", "127.0.0.1:9155", "TCP listen address")
		maintenance = flag.Duration("maintenance", time.Second, "background maintenance interval (flush/merge/TTL)")
		rowLimit    = flag.Int("query-row-limit", 0, "rows per query response before more-available (0 = default)")
		flushOnExit = flag.Bool("flush-on-exit", false, "flush all memtables before exiting")
		metricsAddr = flag.String("metrics-addr", "", "optional HTTP listen address for /metrics and /healthz")
		noCompress  = flag.Bool("no-compression", false, "disable block compression")
		noBloom     = flag.Bool("no-bloom", false, "disable per-tablet Bloom filters")
		sync        = flag.Bool("sync", false, "fsync tablet and descriptor writes")
		verifyOpen  = flag.Bool("verify-on-open", false, "checksum every tablet block at open; corrupt tablets are quarantined")
		readTO      = flag.Duration("read-timeout", 0, "drop a connection idle longer than this (0 = no deadline)")
		writeTO     = flag.Duration("write-timeout", 0, "drop a connection whose response write stalls this long (0 = no deadline)")
		maxRequest  = flag.Int("max-request-bytes", 0, "cap a single request frame (0 = protocol max)")
		cacheBytes  = flag.Int64("block-cache-bytes", 0, "per-table LRU cache over parsed blocks, in bytes (0 = off)")
		flushWork   = flag.Int("flush-workers", 0, "background flush workers per table (0 = synchronous flushing)")
		mergeWork   = flag.Int("merge-workers", 0, "background maintenance workers per table running merges and TTL expiry concurrently (0 = serial maintenance in the tick loop)")
		maxUnflush  = flag.Int64("max-unflushed-bytes", 0, "sealed-but-unflushed bytes before inserts stall (0 = default, <0 = unlimited)")
		drainTO     = flag.Duration("drain-timeout", 10*time.Second, "on SIGINT/SIGTERM, wait this long for in-flight requests before closing (0 = close immediately)")
		maxInFlight = flag.Int("max-in-flight", 0, "shed requests beyond this many concurrently in flight with a retryable Overloaded refusal (0 = unlimited)")
	)
	flag.Parse()

	opts := littletable.ServerOptions{
		Root:                *root,
		MaintenanceInterval: *maintenance,
		QueryRowLimit:       *rowLimit,
		ReadTimeout:         *readTO,
		WriteTimeout:        *writeTO,
		MaxRequestBytes:     *maxRequest,
		MaxInFlight:         *maxInFlight,
	}
	opts.Core.DisableCompression = *noCompress
	opts.Core.DisableBloom = *noBloom
	opts.Core.SyncWrites = *sync
	opts.Core.VerifyOnOpen = *verifyOpen
	opts.Core.BlockCacheBytes = *cacheBytes
	opts.Core.FlushWorkers = *flushWork
	opts.Core.MergeWorkers = *mergeWork
	opts.Core.MaxUnflushedBytes = *maxUnflush

	srv, err := littletable.NewServer(opts)
	if err != nil {
		log.Fatalf("littletabled: %v", err)
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("littletabled: listen: %v", err)
	}
	log.Printf("littletabled: serving %s on %s (%d tables)", *root, lis.Addr(), len(srv.TableNames()))

	if *metricsAddr != "" {
		go func() {
			log.Printf("littletabled: metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, srv.MetricsHandler()); err != nil {
				log.Printf("littletabled: metrics: %v", err)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(lis); err != nil {
			log.Printf("littletabled: serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *drainTO > 0 {
		log.Printf("littletabled: draining (timeout %v)", *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		if err := srv.Drain(ctx); err != nil {
			log.Printf("littletabled: drain: %v", err)
		}
		cancel()
	} else {
		log.Printf("littletabled: shutting down")
	}
	if *flushOnExit {
		if err := srv.FlushAllTables(); err != nil {
			log.Printf("littletabled: flush on exit: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Printf("littletabled: close: %v", err)
	}
	<-done
}
