// Quickstart: the end-to-end basics of LittleTable in one program.
//
// It starts a server on a loopback port, connects a client, creates the
// paper's running-example table — transfer rates keyed by (network,
// device, ts) — inserts a few minutes of samples, and then runs the two
// queries Figure 1 illustrates: a whole network over a wide window, and a
// single device over a narrow one. It finishes with the same work
// expressed in SQL.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"
	"os"

	"littletable"
)

func main() {
	//ltlint:ignore vfsonly example provisions its demo directory on the real filesystem
	dir, err := os.MkdirTemp("", "littletable-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	//ltlint:ignore vfsonly demo directory cleanup
	defer os.RemoveAll(dir)

	// 1. Start a server. Production runs cmd/littletabled; embedding works
	// the same way.
	srv, err := littletable.NewServer(littletable.ServerOptions{Root: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(lis)
	fmt.Println("server listening on", lis.Addr())

	// 2. Connect a client and create a table. The primary key's order is
	// the clustering: network first, then device, then time (§3.1).
	c, err := littletable.Dial(lis.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	sc := littletable.MustSchema([]littletable.Column{
		{Name: "network", Type: littletable.Int64},
		{Name: "device", Type: littletable.Int64},
		{Name: "ts", Type: littletable.Timestamp},
		{Name: "rate", Type: littletable.Double}, // bytes/second
	}, []string{"network", "device", "ts"})
	if err := c.CreateTable("usage", sc, 365*littletable.Day); err != nil {
		log.Fatal(err)
	}
	tab, err := c.OpenTable("usage")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Insert: 2 networks × 3 devices × 10 one-minute samples. The
	// client batches automatically; Flush sends the tail.
	now := littletable.Now()
	for net := int64(1); net <= 2; net++ {
		for dev := int64(1); dev <= 3; dev++ {
			for m := int64(0); m < 10; m++ {
				err := tab.Insert(littletable.Row{
					littletable.NewInt64(net),
					littletable.NewInt64(dev),
					littletable.NewTimestamp(now - m*littletable.Minute),
					littletable.NewDouble(float64(100*dev + m)),
				})
				if err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if err := tab.Flush(); err != nil {
		log.Fatal(err)
	}

	// 4. Query rectangle one: all of network 1 over the last 5 minutes.
	q := littletable.NewQuery()
	q.Lower = []littletable.Value{littletable.NewInt64(1)}
	q.Upper = q.Lower // a prefix bound: "network = 1"
	q.MinTs = now - 5*littletable.Minute
	q.MaxTs = now
	rows, err := tab.Query(q).All()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network 1, last 5 minutes: %d rows (sorted by device, then time)\n", len(rows))

	// 5. Query rectangle two: one device, a narrower window, newest first.
	q = littletable.NewQuery()
	q.Lower = []littletable.Value{littletable.NewInt64(1), littletable.NewInt64(2)}
	q.Upper = q.Lower
	q.MinTs = now - 2*littletable.Minute
	q.MaxTs = now
	q.Descending = true
	rows, err = tab.Query(q).All()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network 1 device 2, last 2 minutes, newest first:\n")
	for _, r := range rows {
		fmt.Printf("  ts=%d rate=%.0f B/s\n", r[2].Int, r[3].Float)
	}

	// 6. The latest row for a key prefix (§3.4.5).
	latest, found, err := tab.LatestRow([]littletable.Value{
		littletable.NewInt64(2), littletable.NewInt64(3),
	})
	if err != nil || !found {
		log.Fatal("latest row missing: ", err)
	}
	fmt.Printf("latest sample for network 2 device 3: rate=%.0f B/s\n", latest[3].Float)

	// 7. The same aggregation in SQL (§2.3.2: the interface developers
	// actually wanted).
	eng := littletable.NewSQLOverClient(c)
	res, err := eng.Exec(`SELECT device, SUM(rate) AS total
		FROM usage WHERE network = 1 AND ts >= NOW() - 5 m GROUP BY device`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SQL: per-device rate totals for network 1, last 5 minutes:")
	for _, r := range res.Rows {
		fmt.Printf("  device %d: %.0f\n", r[0].Int, r[1].Float)
	}
}
