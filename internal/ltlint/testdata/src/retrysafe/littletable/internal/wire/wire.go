package wire

type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgInsert
	MsgDelete
	MsgQuery
	MsgMigrateInstall
)

// Request is one row of the request table retrysafe reads.
type Request struct {
	Type       MsgType
	Idempotent bool
}

var Requests = []Request{
	{Type: MsgHello, Idempotent: true},
	{Type: MsgInsert},
	{Type: MsgDelete},
	{Type: MsgQuery, Idempotent: true},
	{Type: MsgMigrateInstall},
}

// RequestOf returns t's row.
func RequestOf(t MsgType) *Request { return &Requests[t-1] }

// MigrateInstall ships one chunk of a tablet image.
type MigrateInstall struct {
	Table  string
	File   string
	Offset int64
	Data   []byte
}
