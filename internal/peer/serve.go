package peer

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"time"

	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/wire"
)

// muxWindow caps concurrent streams a gossip peer advertises. Gossip
// exchanges are tiny and the peer dispatches them sequentially (the
// coordinate rows are one shared resource anyway), so the window only
// needs to cover pipelining depth, not parallelism.
const muxWindow = 64

// Serve answers gossip traffic on ln until ctx is cancelled or the
// listener fails. It speaks the same protocol surface transport.Pool
// expects: Ping/Pong for RTT measurement, GossipExchange for
// coordinate exchange, and the Hello/HelloAck handshake upgrading a
// connection to multiplexed framing. Unknown types get CodeUnknownType
// errors.
func (p *Peer) Serve(ctx context.Context, ln net.Listener) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-done:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		go p.serveConn(ctx, conn)
	}
}

// serveConn handles one connection: a lockstep request/response loop
// that upgrades in place to multiplexed framing when the client sends
// Hello. Dispatch stays sequential either way — a peer's rows are one
// shared resource, so there is nothing to parallelize per connection —
// but after the upgrade many requests can be in flight and responses
// carry their stream IDs back. The read scratch, response and frame
// buffers come from the package arena and go back when the connection
// ends, so a fleet that dials per exchange recycles them.
func (p *Peer) serveConn(ctx context.Context, conn net.Conn) {
	scratch, resp, out := arena.Get(0), arena.Get(0), arena.Get(0)
	defer func() {
		conn.Close()
		arena.Put(scratch)
		arena.Put(resp)
		arena.Put(out)
	}()
	mux := false
	for {
		if err := conn.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)); err != nil {
			return
		}
		t, stream, payload, s, err := wire.ReadMuxFrameInto(conn, scratch)
		scratch = s
		if err != nil {
			var ne net.Error
			idle := errors.As(err, &ne) && ne.Timeout()
			if err != io.EOF && !idle && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				p.logf("serve: %v", err)
			}
			return
		}
		// The framing of this reply is the one the request came in: the
		// HelloAck still goes out in v1, and v2 starts with the next frame.
		replyMux := mux
		var respT wire.MsgType
		if t == wire.TypeHello {
			hello, err := wire.DecodeHello(payload)
			if err != nil || hello.MaxVersion < wire.VersionMux {
				respT, resp = errPayload(resp[:0], wire.CodeBadRequest, "malformed or downlevel Hello")
			} else {
				window := uint32(muxWindow)
				if hello.MaxInflight != 0 && hello.MaxInflight < window {
					window = hello.MaxInflight
				}
				ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: window}
				respT, resp = wire.TypeHelloAck, ack.Encode(resp[:0])
				mux = true
			}
		} else {
			respT, resp = p.dispatch(t, payload, resp[:0])
		}
		if replyMux {
			out = wire.AppendMuxFrame(out[:0], respT, stream, resp)
		} else {
			out = wire.AppendFrame(out[:0], respT, resp)
		}
		if err := conn.SetWriteDeadline(time.Now().Add(p.cfg.RequestTimeout)); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// dispatch answers one request frame, appending the response payload
// to dst.
func (p *Peer) dispatch(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	switch t {
	case wire.TypePing:
		tok, err := wire.PingToken(payload)
		if err != nil {
			return errPayload(dst, wire.CodeBadRequest, err.Error())
		}
		return wire.TypePong, (&wire.Pong{Token: tok}).Encode(dst)
	case wire.TypeGossipExchange:
		return p.handleExchange(payload, dst)
	default:
		return errPayload(dst, wire.CodeUnknownType, "peer: unsupported message type "+t.String())
	}
}

// handleExchange is the serving half of a gossip round: parse the
// GossipExchange payload, answer with this peer's pre-step rows, fold
// the partner's measurement into our own rows when one was taken, and
// merge the partner plus its sample into the neighbor table. The reply
// payload is appended to dst.
func (p *Peer) handleExchange(payload, dst []byte) (wire.MsgType, []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ex := &p.serveView
	if err := ex.ParseExchange(payload); err != nil {
		return errPayload(dst, wire.CodeBadRequest, err.Error())
	}
	// NaN fails the >= 0 check; infinities are rejected explicitly — a
	// hostile frame must not inject a non-finite measurement.
	apply := ex.RTTMillis >= 0 && !math.IsInf(ex.RTTMillis, 1) &&
		len(ex.Out) == p.cfg.Dim && len(ex.In) == p.cfg.Dim
	// The reply carries the pre-step rows, so they are encoded before
	// PeerStep mutates p.x/p.y in place.
	dst = wire.AppendGossipReplyHead(dst, apply, p.x, p.y)
	if apply {
		step := solve.PeerStep(p.x, p.y, ex.Out, ex.In, ex.RTTMillis, p.sgd, p.clamp)
		p.noteStepLocked(step)
	}
	from := p.observeViewLocked(ex.From, ex.Out, ex.In)
	for _, s := range ex.Peers {
		p.observeViewLocked(s.Addr, s.Out, s.In)
	}
	dst = wire.AppendPeerSample(dst, p.sampleLocked(p.cfg.SampleSize, from))
	p.metrics.exchange("in")
	return wire.TypeGossipReply, dst
}

// errPayload appends an Error frame payload to dst.
func errPayload(dst []byte, code uint16, text string) (wire.MsgType, []byte) {
	return wire.TypeError, (&wire.Error{Code: code, Text: text}).Encode(dst)
}
