package peer

import (
	"net"
	"reflect"
	"testing"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// warmPair builds two unconnected peers whose neighbor tables already
// hold each other and three more addresses, all with coordinates, and
// returns a's GossipExchange to b with a full peer sample. Every
// address either side can see is then already a table key.
func warmPair(t *testing.T) (a, b *Peer, req []byte) {
	t.Helper()
	mk := func(self string, seed int64) *Peer {
		p, err := New(Config{Self: self, Seed: seed, MaxNeighbors: 8, Dialer: &net.Dialer{}, Pinger: testutil.StubPinger{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b = mk("peer-a", 1), mk("peer-b", 2)
	row := func(v float64) []float64 {
		r := make([]float64, a.cfg.Dim)
		for k := range r {
			r[k] = v + float64(k)
		}
		return r
	}
	for i, addr := range []string{"peer-c", "peer-d", "peer-e"} {
		a.observeLocked(addr, row(float64(i+1)), row(float64(i+2)))
		b.observeLocked(addr, row(float64(i+3)), row(float64(i+4)))
	}
	a.observeLocked(b.Self(), b.x, b.y)
	b.observeLocked(a.Self(), a.x, a.y)
	ex := wire.GossipExchange{From: a.Self(), Out: a.x, In: a.y, RTTMillis: 12, Peers: a.sampleLocked(3, b.Self())}
	return a, b, ex.Encode(nil)
}

// TestGossipExchangeZeroAlloc is the allocation gate of the gossip
// exchange. With warm tables, the serving half (parse, reply encode,
// step, observe, sample) and the initiating half (reply parse, step,
// observe) each allocate nothing.
func TestGossipExchangeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	a, b, req := warmPair(t)
	var reply []byte
	serve := func() {
		var typ wire.MsgType
		typ, reply = b.handleExchange(req, reply[:0])
		if typ != wire.TypeGossipReply {
			t.Fatalf("reply type %v: %q", typ, reply)
		}
	}
	apply := func() {
		a.mu.Lock()
		err := a.applyReplyLocked(b.Self(), 12, reply)
		a.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		serve()
		apply()
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs != 0 {
		t.Errorf("serving an exchange allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, apply); allocs != 0 {
		t.Errorf("applying a reply allocates %.1f times, want 0", allocs)
	}
	if got := len(a.Neighbors()); got != 4 {
		t.Fatalf("a's table has %d entries, want 4", got)
	}
}

// TestNeighborTableOwnsRows: rows observed from a parsed reply are
// copies, so reusing the payload buffer and the view leaves the table
// untouched.
func TestNeighborTableOwnsRows(t *testing.T) {
	a, b, req := warmPair(t)
	_, reply := b.handleExchange(req, nil)
	want, err := wire.DecodeGossipReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.applyReplyLocked(b.Self(), 12, reply); err != nil {
		t.Fatal(err)
	}
	clear(reply)
	if err := a.replyView.ParseReply((&wire.GossipReply{Out: make([]float64, 8), In: make([]float64, 8)}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	n := a.table[b.Self()]
	if !reflect.DeepEqual(n.out, want.Out) || !reflect.DeepEqual(n.in, want.In) {
		t.Fatalf("table rows for %s changed with the payload: %v %v, want %v %v", b.Self(), n.out, n.in, want.Out, want.In)
	}
	for _, s := range want.Peers {
		if n := a.table[s.Addr]; !reflect.DeepEqual(n.out, s.Out) {
			t.Fatalf("table rows for %s changed with the payload: %v, want %v", s.Addr, n.out, s.Out)
		}
	}
}
