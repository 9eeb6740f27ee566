package wire

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// This file carries the decentralized (landmark-free) mode's messages:
// a GossipExchange/GossipReply pair is one DMFSGD gossip round between
// two peers — or between a peer and a rendezvous directory, which
// stores the announced coordinates and answers with a warm peer sample
// instead of coordinates of its own.

// Gossip message types, continuing the constant block in wire.go.
const (
	TypeGossipExchange MsgType = 0x17
	TypeGossipReply    MsgType = 0x18
)

// GossipExchange is the initiating half of a gossip round: the sender
// offers its own coordinate rows (as they were before any step this
// round), the RTT it just measured to the receiver, and a small sample
// of its neighbor view. The receiver folds the measurement into its own
// rows with the sender's rows as constants and answers with a
// GossipReply carrying its pre-step rows, so both sides apply the same
// symmetric update from the same snapshot.
type GossipExchange struct {
	// From is the sender's dialable listen address — its peer identity
	// in neighbor tables and rendezvous directories.
	From string
	// Out, In are the sender's coordinate rows x_i and y_i.
	Out, In []float64
	// RTTMillis is the RTT the sender measured to the receiver
	// immediately before this exchange. A negative value means no
	// measurement was taken — a rendezvous announce or a coordinate
	// fetch — and neither side applies a gradient step.
	RTTMillis float64
	// Peers is a bounded sample of the sender's neighbor view, gossiped
	// so neighbor sets keep mixing. Entries may carry empty vectors when
	// the sender has no coordinates cached for a peer.
	Peers []LandmarkVec
}

// Encode appends the message payload to dst.
func (m *GossipExchange) Encode(dst []byte) []byte {
	dst = appendString(dst, m.From)
	dst = appendFloats(dst, m.Out)
	dst = appendFloats(dst, m.In)
	dst = appendFloat(dst, m.RTTMillis)
	return AppendPeerSample(dst, m.Peers)
}

// DecodeGossipExchange parses a GossipExchange payload into a message
// that owns its memory: nothing in it aliases b.
func DecodeGossipExchange(b []byte) (*GossipExchange, error) {
	v := decodeViews.Get().(*GossipView)
	defer decodeViews.Put(v)
	if err := v.ParseExchange(b); err != nil {
		return nil, err
	}
	f := v.ownedFloats()
	return &GossipExchange{
		From:      string(v.From),
		Out:       f.take(len(v.Out)),
		In:        f.take(len(v.In)),
		RTTMillis: v.RTTMillis,
		Peers:     v.ownedPeers(&f),
	}, nil
}

// GossipReply answers a GossipExchange.
type GossipReply struct {
	// Applied reports whether the receiver folded the exchange's
	// measurement into its own coordinate rows. False for rendezvous
	// directories and for exchanges with a negative RTTMillis.
	Applied bool
	// Out, In are the receiver's coordinate rows from before any step
	// this round; the sender runs its half of the symmetric update
	// against them. Both empty means the receiver holds no coordinates
	// (a rendezvous directory, or a peer that has not initialized).
	Out, In []float64
	// Peers is a bounded sample of the receiver's neighbor view — for a
	// rendezvous directory, the warm entries seeding the newcomer.
	Peers []LandmarkVec
}

// Encode appends the message payload to dst.
func (m *GossipReply) Encode(dst []byte) []byte {
	return AppendPeerSample(AppendGossipReplyHead(dst, m.Applied, m.Out, m.In), m.Peers)
}

// AppendGossipReplyHead appends the fields of a GossipReply that come
// before its peer sample. With AppendPeerSample it lets a responder
// encode its rows first and draw the sample later.
func AppendGossipReplyHead(dst []byte, applied bool, out, in []float64) []byte {
	dst = appendBool(dst, applied)
	dst = appendFloats(dst, out)
	return appendFloats(dst, in)
}

// AppendPeerSample appends the u32-counted peer sample both gossip
// messages end with.
func AppendPeerSample(dst []byte, peers []LandmarkVec) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(peers)))
	for _, p := range peers {
		dst = appendString(dst, p.Addr)
		dst = appendFloats(dst, p.Out)
		dst = appendFloats(dst, p.In)
	}
	return dst
}

// DecodeGossipReply parses a GossipReply payload into a message that
// owns its memory: nothing in it aliases b.
func DecodeGossipReply(b []byte) (*GossipReply, error) {
	v := decodeViews.Get().(*GossipView)
	defer decodeViews.Put(v)
	if err := v.ParseReply(b); err != nil {
		return nil, err
	}
	f := v.ownedFloats()
	return &GossipReply{Applied: v.Applied, Out: f.take(len(v.Out)), In: f.take(len(v.In)), Peers: v.ownedPeers(&f)}, nil
}

// GossipView is a reusable parse target for both gossip messages, the
// allocation-free counterpart of the Decode functions. From and every
// Peers[i].Addr alias the parsed payload; the float slices live in
// storage the view recycles from one parse to the next. Everything the
// view holds is therefore valid only until the payload buffer is reused
// or the view parses again: a caller that keeps rows must copy them.
// Once its storage has grown to the largest message seen, a view parses
// without allocating. After a failed parse its contents are
// unspecified.
type GossipView struct {
	// From is the sender's address (GossipExchange only).
	From []byte
	// Applied mirrors GossipReply.Applied (GossipReply only).
	Applied bool
	// Out, In are the sender's coordinate rows.
	Out, In []float64
	// RTTMillis mirrors GossipExchange.RTTMillis (GossipExchange only).
	RTTMillis float64
	// Peers is the peer sample.
	Peers []PeerView

	floats []float64 // storage the float slices above are parsed into
}

// PeerView is one peer-sample entry of a GossipView.
type PeerView struct {
	Addr    []byte
	Out, In []float64
}

// ParseExchange parses a GossipExchange payload into v.
func (v *GossipView) ParseExchange(b []byte) error {
	v.reset()
	var err error
	if v.From, b, err = consumeBytesView(b); err != nil {
		return err
	}
	if v.Out, b, err = v.consumeFloats(b); err != nil {
		return err
	}
	if v.In, b, err = v.consumeFloats(b); err != nil {
		return err
	}
	if v.RTTMillis, b, err = consumeFloat(b); err != nil {
		return err
	}
	return v.parsePeers(b)
}

// ParseReply parses a GossipReply payload into v.
func (v *GossipView) ParseReply(b []byte) error {
	v.reset()
	var err error
	if v.Applied, b, err = consumeBool(b); err != nil {
		return err
	}
	if v.Out, b, err = v.consumeFloats(b); err != nil {
		return err
	}
	if v.In, b, err = v.consumeFloats(b); err != nil {
		return err
	}
	return v.parsePeers(b)
}

// reset empties v for the next parse. Storage grown past the arena's
// retention cap by one huge message is dropped rather than kept for
// the view's lifetime.
func (v *GossipView) reset() {
	peers, floats := v.Peers[:0], v.floats[:0]
	if cap(peers) > 4096 {
		peers = nil
	}
	if 8*cap(floats) > arenaMaxRetain {
		floats = nil
	}
	*v = GossipView{Peers: peers, floats: floats}
}

// consumeFloats parses a u32-counted float vector into the view's
// storage. Slices handed out earlier in the same parse stay valid when
// the storage grows: they keep the old backing array.
func (v *GossipView) consumeFloats(b []byte) ([]float64, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxPayload/8 || len(b) < 8*n {
		return nil, nil, ErrShortPayload
	}
	start := len(v.floats)
	v.floats = slices.Grow(v.floats, n)[:start+n]
	out := v.floats[start : start+n : start+n]
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:], nil
}

// parsePeers parses the u32-counted peer sample both gossip messages
// end with.
func (v *GossipView) parsePeers(b []byte) error {
	if len(b) < 4 {
		return ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// Each entry costs at least a 2-byte address prefix and two 4-byte
	// vector counts; grow incrementally past 4096 so a hostile count
	// cannot force a huge allocation up front.
	if n > MaxPayload/10 || 10*n > len(b) {
		return ErrShortPayload
	}
	v.Peers = slices.Grow(v.Peers, min(n, 4096))
	var err error
	for i := 0; i < n; i++ {
		var p PeerView
		if p.Addr, b, err = consumeBytesView(b); err != nil {
			return err
		}
		if p.Out, b, err = v.consumeFloats(b); err != nil {
			return err
		}
		if p.In, b, err = v.consumeFloats(b); err != nil {
			return err
		}
		v.Peers = append(v.Peers, p)
	}
	return nil
}

// decodeViews lends the Decode functions warm views to parse into
// before they copy the message out.
var decodeViews = sync.Pool{New: func() any { return new(GossipView) }}

// floatRun hands out consecutive rows of one allocation.
type floatRun []float64

func (f *floatRun) take(n int) []float64 {
	s := (*f)[:n:n]
	*f = (*f)[n:]
	return s
}

// ownedFloats copies every float of the last parse into one
// allocation. The storage holds them in parse order — Out, In, then
// each peer's Out and In — so taking rows in that order rebuilds the
// message.
func (v *GossipView) ownedFloats() floatRun {
	return slices.Clone(v.floats)
}

// ownedPeers copies the peer sample out of the view, taking its rows
// from f.
func (v *GossipView) ownedPeers(f *floatRun) []LandmarkVec {
	out := make([]LandmarkVec, len(v.Peers))
	for i, p := range v.Peers {
		out[i] = LandmarkVec{Addr: string(p.Addr), Out: f.take(len(p.Out)), In: f.take(len(p.In))}
	}
	return out
}
