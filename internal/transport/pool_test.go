package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

func newTestPool(t *testing.T, cfg PoolConfig) *Pool {
	t.Helper()
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func poolPing(t *testing.T, p *Pool, addr string, token uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	typ, payload, err := p.Call(ctx, addr, wire.TypePing, (&wire.Ping{Token: token}).Encode(nil))
	if err != nil {
		t.Fatalf("pool call: %v", err)
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v, want Pong", typ)
	}
	pong, err := wire.DecodePong(payload)
	if err != nil || pong.Token != token {
		t.Fatalf("pong %+v err %v, want token %d", pong, err, token)
	}
}

// TestRoundtripClearsStaleDeadline is the regression test for the reuse
// bug: a call with a context deadline used to leave that deadline armed
// on the connection, so a later call with no deadline on the same
// connection failed as soon as the stale deadline passed.
func TestRoundtripClearsStaleDeadline(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 0)
	d := &net.Dialer{}
	conn, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	typ, _, err := Roundtrip(ctx, conn, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil))
	cancel()
	if err != nil || typ != wire.TypePong {
		t.Fatalf("with-deadline call: type %v err %v", typ, err)
	}

	// Let the first call's absolute deadline expire, then reuse the
	// connection with a deadline-free context: the call must succeed
	// rather than inherit the stale deadline and time out instantly.
	time.Sleep(250 * time.Millisecond)
	typ, _, err = Roundtrip(context.Background(), conn, wire.TypePing, (&wire.Ping{Token: 2}).Encode(nil))
	if err != nil {
		t.Fatalf("no-deadline call on reused conn inherited a stale deadline: %v", err)
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v, want Pong", typ)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{})
	for i := 0; i < 20; i++ {
		poolPing(t, p, addr, uint64(i+1))
	}
	if got := ln.Accepts(); got != 1 {
		t.Fatalf("20 sequential pooled calls used %d connections, want 1", got)
	}
	// Every multiplexed call, the first included, is served over the
	// pooled connection.
	st := p.Stats()
	if st.Dials != 1 || st.Reuses != 20 {
		t.Fatalf("stats %+v, want 1 dial and 20 reuses", st)
	}
}

func TestPoolConcurrentCalls(t *testing.T) {
	// Hammer one lockstep pool from many goroutines (meaningful under
	// -race) and check the idle cap and the accounting.
	const maxIdle = 4
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{MaxIdlePerHost: maxIdle, MuxConns: -1})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				poolPing(t, p, addr, uint64(g*1000+i+1))
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Idle > maxIdle {
		t.Fatalf("%d idle connections, MaxIdlePerHost is %d", st.Idle, maxIdle)
	}
	if st.Dials+st.Reuses != 16*25 || st.Dials != ln.Accepts() {
		t.Fatalf("stats %+v with %d accepts do not account for all %d calls", st, ln.Accepts(), 16*25)
	}
}

func TestPoolWireErrorKeepsConnection(t *testing.T) {
	// An application-level error frame is a healthy exchange: the
	// connection must go back to the pool, not be discarded.
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err := p.Call(ctx, addr, wire.TypeGetModel, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) {
		t.Fatalf("error %v should unwrap to *wire.Error", err)
	}
	poolPing(t, p, addr, 7)
	if got := ln.Accepts(); got != 1 {
		t.Fatalf("wire error discarded the connection: %d accepts, want 1", got)
	}
}

func TestPoolRetriesDeadIdleConnection(t *testing.T) {
	// A server that serves one request per connection and then closes it:
	// every pooled reuse finds a dead connection and must transparently
	// replay on a fresh one.
	ln := testutil.Loopback(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				typ, payload, err := wire.ReadFrame(c)
				if err != nil || typ != wire.TypePing {
					return
				}
				p, err := wire.DecodePing(payload)
				if err != nil {
					return
				}
				_ = wire.WriteFrame(c, wire.TypePong, (&wire.Pong{Token: p.Token}).Encode(nil))
			}(conn)
		}
	}()
	p := newTestPool(t, PoolConfig{MuxConns: -1})
	poolPing(t, p, ln.Addr().String(), 1)
	// Give the server's close time to land so the next call reuses a
	// genuinely dead connection rather than winning the race.
	time.Sleep(50 * time.Millisecond)
	poolPing(t, p, ln.Addr().String(), 2)
	if st := p.Stats(); st.Retries != 1 {
		t.Fatalf("stats %+v, want exactly one transparent retry", st)
	}
}

func TestPoolIdleTimeoutClosesAtCheckout(t *testing.T) {
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{IdleTimeout: 50 * time.Millisecond, MuxConns: -1})
	poolPing(t, p, addr, 1)
	if n := p.Stats().Idle; n != 1 {
		t.Fatalf("%d idle connections after call, want 1", n)
	}
	time.Sleep(100 * time.Millisecond)
	poolPing(t, p, addr, 2)
	if got := ln.Accepts(); got != 2 {
		t.Fatalf("%d connections opened, want the expired one replaced", got)
	}
	if st := p.Stats(); st.Discards != 1 || st.Reuses != 0 || st.Idle != 1 {
		t.Fatalf("stats %+v, want the expired connection discarded, not reused", st)
	}
}

func TestPoolDialsPerCallWithoutIdleList(t *testing.T) {
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{MaxIdlePerHost: -1, MuxConns: -1})
	for i := 0; i < 3; i++ {
		poolPing(t, p, addr, uint64(i+1))
	}
	if got := ln.Accepts(); got != 3 {
		t.Fatalf("3 calls opened %d connections, want one each", got)
	}
	if st := p.Stats(); st.Dials != 3 || st.Discards != 3 || st.Idle != 0 {
		t.Fatalf("stats %+v, want every connection dialed and closed", st)
	}
}

func TestPoolSurvivesServerRestart(t *testing.T) {
	// Track accepted connections so the "restart" can sever them: closing
	// a listener alone does not close conns already handed to handlers.
	ln := testutil.Loopback(t)
	addr := ln.Addr().String()
	tracking := &testutil.TrackingListener{Listener: ln}
	testutil.MuxEchoServer(t, tracking, 0)
	p := newTestPool(t, PoolConfig{})
	poolPing(t, p, addr, 1)

	// Restart: close the listener and every accepted connection (killing
	// the pooled connection's peer), then re-listen on the same address.
	ln.Close()
	tracking.CloseConns()
	time.Sleep(50 * time.Millisecond)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { ln2.Close() })
	testutil.MuxEchoServer(t, ln2, 0)

	// The pooled connection is dead; the call must recover via the
	// single transparent retry against the restarted server.
	poolPing(t, p, addr, 2)
	if st := p.Stats(); st.Retries == 0 && st.Dials < 2 {
		t.Fatalf("stats %+v: expected a retry or fresh dial after restart", st)
	}
}

func TestPoolAppliesDefaultCallTimeout(t *testing.T) {
	// A server that accepts and never answers: a Call with a deadline-free
	// context must still return once the pool's CallTimeout expires.
	ln := testutil.Loopback(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
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
	p := newTestPool(t, PoolConfig{CallTimeout: 100 * time.Millisecond})
	start := time.Now()
	_, _, err := p.Call(context.Background(), ln.Addr().String(), wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil))
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("default CallTimeout was not applied")
	}
}

func TestPoolMaxIdleCapDiscardsSurplus(t *testing.T) {
	// Finish several calls concurrently so more connections come back
	// than the idle list may hold; the surplus must be closed.
	_, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{MaxIdlePerHost: 1, MuxConns: -1})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			poolPing(t, p, addr, uint64(g+1))
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Idle != 1 {
		t.Fatalf("%d idle connections, MaxIdlePerHost is 1", st.Idle)
	}
	if st.Discards != st.Dials-1 {
		t.Fatalf("stats %+v: every connection but the idle one must be discarded", st)
	}
}

func TestPoolClosedRefusesCalls(t *testing.T) {
	_, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{MuxConns: -1})
	poolPing(t, p, addr, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().Idle; n != 0 {
		t.Fatalf("%d idle connections survived Close", n)
	}
	if _, _, err := p.Call(context.Background(), addr, wire.TypePing, (&wire.Ping{Token: 2}).Encode(nil)); err == nil {
		t.Fatal("Call on a closed pool must fail")
	}
}

func TestNewPoolRequiresDialer(t *testing.T) {
	if _, err := NewPool(PoolConfig{}); err == nil {
		t.Fatal("NewPool without a Dialer must fail")
	}
}

// redirectDialer dials one fixed address whatever address it is asked
// for, so a test can call many distinct endpoints served by one server.
type redirectDialer struct{ to string }

func (d redirectDialer) DialContext(ctx context.Context, network, _ string) (net.Conn, error) {
	var nd net.Dialer
	return nd.DialContext(ctx, network, d.to)
}

// TestPoolRetiresUnusedEndpoints: a dial-per-call pool keeps no entry
// for an endpoint once its call is over, and Stats still counts every
// dial the retired entries made.
func TestPoolRetiresUnusedEndpoints(t *testing.T) {
	_, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{Dialer: redirectDialer{to: addr}, MaxIdlePerHost: -1, MuxConns: -1})
	for i := 0; i < 1000; i++ {
		poolPing(t, p, fmt.Sprintf("peer-%d", i), uint64(i+1))
	}
	p.mu.Lock()
	n := len(p.hosts)
	p.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d host entries left after 1000 one-off calls, want 0", n)
	}
	if st := p.Stats(); st.Dials != 1000 || st.Discards != 1000 || st.Idle != 0 {
		t.Fatalf("stats %+v, want 1000 dials, 1000 discards, 0 idle", st)
	}
	if eps := p.EndpointStats(); len(eps) != 0 {
		t.Fatalf("EndpointStats lists retired endpoints: %v", eps)
	}
}
