// Package testutil holds the network test helpers that were once
// copy-pasted across the transport, client and server test suites:
// loopback listeners, a minimal server speaking both wire framings,
// accept-counting and connection-tracking listener wrappers, and a stub
// pinger. It imports only net and wire, so every internal package's
// tests can use it without import cycles.
package testutil

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

// Loopback returns a TCP listener on an ephemeral 127.0.0.1 port,
// closed automatically when the test ends.
func Loopback(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// MuxServer serves every connection accepted from ln the way the real
// server does: a Hello upgrades the connection to the v2 multiplexed
// framing (HelloAck echoes the client's window, capped at maxInflight
// when positive), after which every request is answered on its own
// stream; requests arriving before a Hello are answered in v1 lockstep.
// answer maps each request to its reply; it runs sequentially per
// connection and must not retain payload. It runs until the listener
// closes.
func MuxServer(t testing.TB, ln net.Listener, maxInflight int, answer func(wire.MsgType, []byte) (wire.MsgType, []byte)) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var buf []byte
				var wmu sync.Mutex
				mux := false
				for {
					typ, stream, payload, scratch, err := wire.ReadMuxFrameInto(c, buf)
					buf = scratch
					if err != nil {
						return
					}
					if typ == wire.TypeHello {
						hello, err := wire.DecodeHello(payload)
						if err != nil {
							return
						}
						window := hello.MaxInflight
						if maxInflight > 0 && uint32(maxInflight) < window {
							window = uint32(maxInflight)
						}
						ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: window}
						if err := wire.WriteFrame(c, wire.TypeHelloAck, ack.Encode(nil)); err != nil {
							return
						}
						mux = true
						continue
					}
					rt, rp := answer(typ, payload)
					if !mux {
						if err := wire.WriteFrame(c, rt, rp); err != nil {
							return
						}
						continue
					}
					// Write concurrently after the handshake so replies
					// interleave like the real server's completion order.
					go func() {
						wmu.Lock()
						defer wmu.Unlock()
						c.Write(wire.AppendMuxFrame(nil, rt, stream, rp)) //nolint:errcheck
					}()
				}
			}(conn)
		}
	}()
}

// MuxEchoServer is a MuxServer that answers Ping with Pong and GetInfo
// with a fixed Info; other types get a wire error.
func MuxEchoServer(t testing.TB, ln net.Listener, maxInflight int) {
	t.Helper()
	MuxServer(t, ln, maxInflight, echo)
}

func echo(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	switch typ {
	case wire.TypePing:
		p, err := wire.DecodePing(payload)
		if err != nil {
			return wire.TypeError, (&wire.Error{Code: wire.CodeBadRequest, Text: err.Error()}).Encode(nil)
		}
		return wire.TypePong, (&wire.Pong{Token: p.Token}).Encode(nil)
	case wire.TypeGetInfo:
		info := &wire.Info{Dim: 10, NumLandmarks: 20, Algorithm: "SVD", ModelReady: true}
		return wire.TypeInfo, info.Encode(nil)
	default:
		return wire.TypeError, (&wire.Error{Code: wire.CodeUnknownType, Text: "nope"}).Encode(nil)
	}
}

// CountingListener wraps a listener and counts accepted connections,
// so tests can prove pooled transports reuse connections instead of
// dialing per call.
type CountingListener struct {
	net.Listener
	accepts atomic.Int64
}

// Accept implements net.Listener.
func (l *CountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// Accepts returns how many connections have been accepted.
func (l *CountingListener) Accepts() int64 { return l.accepts.Load() }

// CountingEcho starts a MuxEchoServer behind a CountingListener on a
// fresh loopback port and returns the listener and its address.
func CountingEcho(t testing.TB) (*CountingListener, string) {
	t.Helper()
	ln := &CountingListener{Listener: Loopback(t)}
	MuxEchoServer(t, ln, 0)
	return ln, ln.Addr().String()
}

// TrackingListener records accepted connections so tests can sever
// them mid-call.
type TrackingListener struct {
	net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

// Accept implements net.Listener.
func (l *TrackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// CloseConns closes every connection accepted so far and returns how
// many were severed.
func (l *TrackingListener) CloseConns() int {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// StubPinger reports a fixed RTT for any address — for tests whose
// "landmarks" are names rather than dialable endpoints.
type StubPinger struct{ RTT time.Duration }

// Ping implements transport.Pinger.
func (p StubPinger) Ping(context.Context, string, int) (time.Duration, error) {
	return p.RTT, nil
}
