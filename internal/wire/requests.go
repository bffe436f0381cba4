package wire

// Route says what the shard router does with a request type.
type Route uint8

const (
	// RouteLocal requests are answered by whichever process receives
	// them; the router never forwards them.
	RouteLocal Route = iota
	// RouteTable requests start with a table name (PeekTable): the router
	// relays the bytes to the shard owning that table and the response
	// back, decoding neither.
	RouteTable
	// RouteScatter requests fan out to every live shard and the router
	// merges the answers.
	RouteScatter
	// RouteRouterOnly requests exist only on the router; a plain server
	// bounces them as unknown.
	RouteRouterOnly
)

// Request is everything the layers need to know about one request type
// beyond its payload codec and handler.
type Request struct {
	Type MsgType
	Name string
	// Idempotent requests may be re-sent even when a prior attempt's fate
	// is unknown (it reached the wire but the connection broke before a
	// response). Reads and flushes are; inserts, deletes and schema
	// changes are not — a blind re-send could apply them twice.
	Idempotent bool
	Route      Route
	// RateLimited requests spend a token from their tenant's bucket at the
	// router: the data path is limited, schema management and monitoring
	// always pass.
	RateLimited bool
	// Response is the type a success answers with. Any request may instead
	// draw MsgError or MsgOverloaded.
	Response MsgType
}

// Requests is the one table of request types: the client's retry
// classification and response check, the router's forward and rate-limit
// decisions all read it, so a request is classified in exactly one place.
// Adding a request is a constant, a row here, and its handler arm.
var Requests = []Request{
	{Type: MsgHello, Name: "Hello", Idempotent: true, Route: RouteLocal, Response: MsgOK},
	{Type: MsgListTables, Name: "ListTables", Idempotent: true, Route: RouteScatter, Response: MsgTableList},
	// A re-sent create could race a concurrent one; a second drop reports
	// a missing table.
	{Type: MsgCreateTable, Name: "CreateTable", Route: RouteTable, Response: MsgOK},
	{Type: MsgDropTable, Name: "DropTable", Route: RouteTable, Response: MsgOK},
	{Type: MsgGetSchema, Name: "GetSchema", Idempotent: true, Route: RouteTable, Response: MsgSchema},
	// A replayed insert duplicates rows under server-assigned timestamps.
	{Type: MsgInsert, Name: "Insert", Route: RouteTable, RateLimited: true, Response: MsgOK},
	{Type: MsgQuery, Name: "Query", Idempotent: true, Route: RouteTable, RateLimited: true, Response: MsgRows},
	{Type: MsgLatestRow, Name: "LatestRow", Idempotent: true, Route: RouteTable, RateLimited: true, Response: MsgRowResult},
	{Type: MsgAlterTTL, Name: "AlterTTL", Route: RouteTable, Response: MsgOK},
	{Type: MsgAddColumn, Name: "AddColumn", Route: RouteTable, Response: MsgOK},
	{Type: MsgWidenColumn, Name: "WidenColumn", Route: RouteTable, Response: MsgOK},
	{Type: MsgFlushTable, Name: "FlushTable", Idempotent: true, Route: RouteTable, Response: MsgOK},
	{Type: MsgStats, Name: "Stats", Idempotent: true, Route: RouteTable, Response: MsgStatsResult},
	// The TTL clock advances between two attempts at the same delete.
	{Type: MsgDelete, Name: "Delete", Route: RouteTable, RateLimited: true, Response: MsgDeleteResult},
	{Type: MsgServerStats, Name: "ServerStats", Idempotent: true, Route: RouteScatter, Response: MsgServerStatsResult},
	{Type: MsgScatterQuery, Name: "ScatterQuery", Idempotent: true, Route: RouteScatter, RateLimited: true, Response: MsgScatterRows},
	// Migration begin/fetch/end are idempotent by construction: begin
	// refreshes the pin set, fetch is a positioned read, end releases pins
	// that may already be released. Install is NOT — a replayed chunk
	// breaks the staging offset discipline, so its driver restarts the
	// file at offset 0.
	{Type: MsgMigrateBegin, Name: "MigrateBegin", Idempotent: true, Route: RouteTable, Response: MsgMigrateManifest},
	{Type: MsgMigrateFetch, Name: "MigrateFetch", Idempotent: true, Route: RouteTable, Response: MsgMigrateChunk},
	{Type: MsgMigrateEnd, Name: "MigrateEnd", Idempotent: true, Route: RouteTable, Response: MsgOK},
	{Type: MsgMigrateInstall, Name: "MigrateInstall", Route: RouteTable, Response: MsgOK},
	// The router-side move is a write workflow.
	{Type: MsgMigrateTable, Name: "MigrateTable", Route: RouteRouterOnly, Response: MsgOK},
	{Type: MsgRouterStats, Name: "RouterStats", Idempotent: true, Route: RouteRouterOnly, Response: MsgRouterStatsResult},
	{Type: MsgAggQuery, Name: "AggQuery", Idempotent: true, Route: RouteScatter, RateLimited: true, Response: MsgAggResult},
}

var requestByType = func() (ix [msgRequestEnd]*Request) {
	for i := range Requests {
		ix[Requests[i].Type] = &Requests[i]
	}
	return ix
}()

// RequestOf returns t's row in Requests, or nil when t is not a request
// type this build knows.
func RequestOf(t MsgType) *Request {
	if t >= msgRequestEnd {
		return nil
	}
	return requestByType[t]
}
