package client

import (
	"littletable/internal/wire"
)

type conn struct{}

func (c *conn) WriteMsg(t wire.MsgType, p []byte) error { return nil }
func (c *conn) Send(t wire.MsgType, m any) error        { return nil }
func (c *conn) ReadMsg() (wire.MsgType, []byte, error)  { return 0, nil, nil }

type Client struct {
	c *conn
}

// retryAfterSend is the one-helper level callers may consult through.
func retryAfterSend(t wire.MsgType) bool { return wire.RequestOf(t).Idempotent }

// once is the send primitive; it is driven because do, its caller,
// consults the classification via retryAfterSend.
func (c *Client) once(t wire.MsgType, p []byte) ([]byte, error) {
	if err := c.c.WriteMsg(t, p); err != nil {
		return nil, err
	}
	_, resp, err := c.c.ReadMsg()
	return resp, err
}

func (c *Client) do(t wire.MsgType, p []byte) ([]byte, error) {
	for {
		resp, err := c.once(t, p)
		if err == nil || !retryAfterSend(t) {
			return resp, err
		}
	}
}

// rawSend bypasses the retry policy entirely: nothing between it and the
// wire consults the classification, so a caller looping on it replays anything.
func (c *Client) rawSend(t wire.MsgType, p []byte) ([]byte, error) { // want `rawSend sends and receives wire messages but neither it nor any caller consults the request table's Idempotent classification`
	c.c.WriteMsg(t, p)
	_, resp, err := c.c.ReadMsg()
	return resp, err
}

// probe only ever writes a hard-coded idempotent type (the pool's
// health-check shape), so it is exempt.
func (c *Client) probe() error {
	if err := c.c.WriteMsg(wire.MsgHello, nil); err != nil {
		return err
	}
	_, _, err := c.c.ReadMsg()
	return err
}

// rawEncode is rawSend through the encoding writer: Send writes as
// surely as WriteMsg does.
func (c *Client) rawEncode(t wire.MsgType, m any) ([]byte, error) { // want `rawEncode sends and receives wire messages but neither it nor any caller consults the request table's Idempotent classification`
	c.c.Send(t, m)
	_, resp, err := c.c.ReadMsg()
	return resp, err
}

//ltlint:ignore retrysafe test-only echo used by the harness; it never carries write traffic
func (c *Client) echo(t wire.MsgType, p []byte) ([]byte, error) {
	c.c.WriteMsg(t, p)
	_, resp, err := c.c.ReadMsg()
	return resp, err
}
