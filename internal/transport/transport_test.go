package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// The loopback/echo helpers these tests once defined locally live in
// internal/testutil now, shared with the client and server suites.

func TestCallRoundTrip(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 0)
	d := &net.Dialer{}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	typ, payload, err := Call(ctx, d, ln.Addr().String(), wire.TypeGetInfo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeInfo {
		t.Fatalf("type %v", typ)
	}
	info, err := wire.DecodeInfo(payload)
	if err != nil || info.Dim != 10 {
		t.Fatalf("info %+v err %v", info, err)
	}
}

func TestCallDecodesRemoteError(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 0)
	d := &net.Dialer{}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err := Call(ctx, d, ln.Addr().String(), wire.TypeGetModel, nil)
	if err == nil {
		t.Fatal("expected remote error")
	}
	var werr *wire.Error
	if !errors.As(err, &werr) {
		t.Fatalf("error %T should unwrap to *wire.Error", err)
	}
	if werr.Code != wire.CodeUnknownType {
		t.Fatalf("code %d", werr.Code)
	}
}

func TestCallDialFailure(t *testing.T) {
	d := &net.Dialer{Timeout: 200 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// Port 1 on localhost is essentially guaranteed closed.
	_, _, err := Call(ctx, d, "127.0.0.1:1", wire.TypeGetInfo, nil)
	if err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRoundtripHonorsContextDeadline(t *testing.T) {
	// A server that accepts but never answers: Roundtrip must time out via
	// the context deadline propagated to the conn.
	ln := testutil.Loopback(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // swallow request, never reply
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	d := &net.Dialer{}
	conn, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = Roundtrip(ctx, conn, wire.TypeGetInfo, nil)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("Roundtrip did not honor the deadline")
	}
}

func TestTCPPingerMeasures(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 0)
	p := &TCPPinger{Dialer: &net.Dialer{}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rtt, err := p.Ping(ctx, ln.Addr().String(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("loopback RTT %v implausible", rtt)
	}
}

func TestTCPPingerZeroSamplesDefaultsToOne(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 0)
	p := &TCPPinger{Dialer: &net.Dialer{}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Ping(ctx, ln.Addr().String(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestTCPPingerRejectsWrongReply(t *testing.T) {
	// A server that answers Ping with Info: the pinger must reject it.
	ln := testutil.Loopback(t)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		info := &wire.Info{Dim: 1}
		_ = wire.WriteFrame(conn, wire.TypeInfo, info.Encode(nil))
	}()
	p := &TCPPinger{Dialer: &net.Dialer{}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Ping(ctx, ln.Addr().String(), 1); err == nil {
		t.Fatal("expected error for wrong reply type")
	}
}

func TestTCPPingerDialFailure(t *testing.T) {
	p := &TCPPinger{Dialer: &net.Dialer{Timeout: 200 * time.Millisecond}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := p.Ping(ctx, "127.0.0.1:1", 1); err == nil {
		t.Fatal("expected dial error")
	}
}
