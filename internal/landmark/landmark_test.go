package landmark

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must be rejected")
	}
}

func simHosts(t *testing.T, n int) (*simnet.Network, []string) {
	t.Helper()
	topo, err := topology.Generate(topology.Config{Seed: 5, NumHosts: n})
	if err != nil {
		t.Fatal(err)
	}
	names := simnet.DefaultNames(n)
	nw, err := simnet.New(topo, names, simnet.Config{TimeScale: 1e-5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return nw, names
}

func TestMeasureOnceSkipsSelfAndFailures(t *testing.T) {
	nw, names := simHosts(t, 5)
	h, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{names[0], names[1], "ghost", names[2]},
		Server: names[3],
		Dialer: h,
		Pinger: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := agent.MeasureOnce(context.Background())
	if len(entries) != 2 {
		t.Fatalf("expected 2 entries (self and ghost skipped), got %d: %+v", len(entries), entries)
	}
	for _, e := range entries {
		if e.RTTMillis <= 0 {
			t.Fatalf("entry %+v has nonpositive RTT", e)
		}
	}
}

func TestReportOnceFailsWithNoPeers(t *testing.T) {
	nw, names := simHosts(t, 3)
	h, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{"ghost1", "ghost2"},
		Server: names[1],
		Dialer: h,
		Pinger: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.ReportOnce(context.Background()); err == nil {
		t.Fatal("report with zero successful measurements must fail")
	}
}

func TestServeEchoAnswersPings(t *testing.T) {
	nw, names := simHosts(t, 4)
	lmHost, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{names[1]},
		Server: names[2],
		Dialer: lmHost,
		Pinger: lmHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := lmHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- agent.ServeEcho(ctx, ln) }()

	// A TCPPinger over simnet measures the echo RTT.
	other, err := nw.Host(names[3])
	if err != nil {
		t.Fatal(err)
	}
	pinger := &transport.TCPPinger{Dialer: other}
	pctx, pcancel := context.WithTimeout(ctx, 10*time.Second)
	defer pcancel()
	rtt, err := pinger.Ping(pctx, names[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("echo RTT = %v", rtt)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeEcho did not stop")
	}
}

func TestServeEchoRejectsNonPing(t *testing.T) {
	nw, names := simHosts(t, 3)
	lmHost, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{names[1]},
		Server: names[2],
		Dialer: lmHost,
		Pinger: lmHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := lmHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go agent.ServeEcho(ctx, ln) //nolint:errcheck

	other, err := nw.Host(names[1])
	if err != nil {
		t.Fatal(err)
	}
	conn, err := other.DialContext(ctx, "simnet", names[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.TypeGetModel, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError {
		t.Fatalf("type %v want Error", typ)
	}
	if werr, err := wire.DecodeError(payload); err != nil || werr.Code != wire.CodeUnknownType {
		t.Fatalf("error %+v %v", werr, err)
	}
}

func TestRunReportsPeriodically(t *testing.T) {
	nw, names := simHosts(t, 4)
	// Count reports arriving at a fake server.
	srvHost, err := nw.Host(names[2])
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srvHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	reports := make(chan struct{}, 64)
	testutil.MuxServer(t, ln, 0, func(typ wire.MsgType, _ []byte) (wire.MsgType, []byte) {
		if typ == wire.TypeReportRTT {
			reports <- struct{}{}
		}
		return wire.TypeAck, nil
	})

	lmHost, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:     names[0],
		Peers:    []string{names[1]},
		Server:   names[2],
		Dialer:   lmHost,
		Pinger:   lmHost,
		Interval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	// Expect at least 3 reports: the immediate one plus ticks.
	deadline := time.After(5 * time.Second)
	for got := 0; got < 3; {
		select {
		case <-reports:
			got++
		case <-deadline:
			t.Fatalf("only %d reports before deadline", got)
		}
	}
	cancel()
	ln.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestReportOncePoolsServerConnection(t *testing.T) {
	// A fake server that Acks every report, counting connections; several
	// report rounds must share one pooled connection.
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	ln := &testutil.CountingListener{Listener: base}
	testutil.MuxServer(t, ln, 0, func(typ wire.MsgType, _ []byte) (wire.MsgType, []byte) {
		if typ != wire.TypeReportRTT {
			return wire.TypeError, (&wire.Error{Code: wire.CodeUnknownType, Text: "nope"}).Encode(nil)
		}
		return wire.TypeAck, nil
	})

	// Echo peer so MeasureOnce succeeds.
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peerLn.Close() })
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	peer, err := New(Config{
		Self:   peerLn.Addr().String(),
		Peers:  []string{"unused"},
		Server: base.Addr().String(),
		Dialer: dialer,
		Pinger: &transport.TCPPinger{Dialer: dialer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	go peer.ServeEcho(ctx, peerLn) //nolint:errcheck

	agent, err := New(Config{
		Self:    "lm-self",
		Peers:   []string{peerLn.Addr().String()},
		Server:  base.Addr().String(),
		Dialer:  dialer,
		Pinger:  &transport.TCPPinger{Dialer: dialer},
		Samples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := agent.ReportOnce(ctx); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if got := ln.Accepts(); got != 1 {
		t.Fatalf("%d report rounds opened %d server connections, want 1 pooled", rounds, got)
	}
}
