package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// bulkServer answers every frame on every connection with a Pong frame
// carrying a payload of n bytes — enough to force the client's decode
// scratch well past any small-buffer floor.
func bulkServer(t *testing.T, n int) string {
	t.Helper()
	ln := testutil.Loopback(t)
	reply := make([]byte, n)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					if _, _, err := wire.ReadFrame(c); err != nil {
						return
					}
					if err := wire.WriteFrame(c, wire.TypePong, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestPoolIdleConnsRetainNoScratch is the buffer-retention regression
// test: a pooled call that transfers a large reply must not leave the
// payload-sized decode scratch attached to the connection when it parks
// idle. Before the fix, MaxIdlePerHost connections after a model-sized
// burst pinned MaxIdlePerHost × payload bytes for as long as they sat
// in the idle list; now the scratch goes back to the pool's arena on
// put and an idle connection holds only its fixed-size read buffer.
func TestPoolIdleConnsRetainNoScratch(t *testing.T) {
	const replySize = 512 << 10
	addr := bulkServer(t, replySize)
	p := newTestPool(t, PoolConfig{MuxConns: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Three calls suffice for the retention check below. The reuse check
	// needs slack: under the race detector sync.Pool deliberately drops a
	// fraction of Puts at random, so a fixed small call count can
	// legitimately observe zero hits — keep exchanging until a recycled
	// buffer shows up, bounded so a real reuse bug still fails fast.
	for i := 0; i < 3 || (i < 64 && p.ArenaStats().Hits == 0); i++ {
		typ, payload, err := p.Call(ctx, addr, wire.TypePing, (&wire.Ping{Token: uint64(i)}).Encode(nil))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if typ != wire.TypePong || len(payload) != replySize {
			t.Fatalf("call %d: type %v payload %d bytes, want Pong with %d", i, typ, len(payload), replySize)
		}
	}

	if got := p.idleScratchBytes(); got != 0 {
		t.Fatalf("idle connections retain %d bytes of decode scratch, want 0", got)
	}
	st := p.ArenaStats()
	if st.Puts == 0 {
		t.Fatalf("parked connections returned nothing to the arena: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("repeat calls never reused an arena buffer: %+v", st)
	}
}
