package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestGossipExchangeRoundTrip(t *testing.T) {
	in := &GossipExchange{
		From:      "peer-3:9000",
		Out:       []float64{1, 2.5, 3},
		In:        []float64{4, 5, 6.25},
		RTTMillis: 42.125,
		Peers: []LandmarkVec{
			{Addr: "peer-1:9000", Out: []float64{7, 8, 9}, In: []float64{10, 11, 12}},
			{Addr: "peer-9:9000"}, // known address, no cached coordinates
		},
	}
	out, err := DecodeGossipExchange(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || out.RTTMillis != in.RTTMillis {
		t.Fatalf("round trip = %+v", out)
	}
	if !reflect.DeepEqual(out.Out, in.Out) || !reflect.DeepEqual(out.In, in.In) {
		t.Fatalf("vectors mangled: %+v", out)
	}
	if len(out.Peers) != 2 || out.Peers[0].Addr != "peer-1:9000" ||
		!reflect.DeepEqual(out.Peers[0].Out, in.Peers[0].Out) ||
		out.Peers[1].Addr != "peer-9:9000" || len(out.Peers[1].Out) != 0 {
		t.Fatalf("peer sample mangled: %+v", out.Peers)
	}
}

func TestGossipExchangeNegativeRTTSentinel(t *testing.T) {
	// The "no measurement" sentinel must survive the wire exactly.
	in := &GossipExchange{From: "p", Out: []float64{1}, In: []float64{2}, RTTMillis: -1}
	out, err := DecodeGossipExchange(in.Encode(nil))
	if err != nil || out.RTTMillis != -1 {
		t.Fatalf("sentinel round trip = %+v, %v", out, err)
	}
}

func TestGossipReplyRoundTrip(t *testing.T) {
	for _, in := range []*GossipReply{
		{
			Applied: true,
			Out:     []float64{1, 2},
			In:      []float64{3, 4},
			Peers:   []LandmarkVec{{Addr: "a:1", Out: []float64{5}, In: []float64{6}}},
		},
		// Rendezvous shape: no coordinates, only a peer sample.
		{Peers: []LandmarkVec{{Addr: "b:2"}, {Addr: "c:3"}}},
		// Fully empty.
		{},
	} {
		out, err := DecodeGossipReply(in.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Applied != in.Applied || len(out.Out) != len(in.Out) ||
			len(out.In) != len(in.In) || len(out.Peers) != len(in.Peers) {
			t.Fatalf("round trip = %+v, want %+v", out, in)
		}
		for i := range in.Peers {
			// Empty decodes as a non-nil zero-length slice; compare values.
			if out.Peers[i].Addr != in.Peers[i].Addr ||
				len(out.Peers[i].Out) != len(in.Peers[i].Out) ||
				(len(in.Peers[i].Out) > 0 && !reflect.DeepEqual(out.Peers[i].Out, in.Peers[i].Out)) {
				t.Fatalf("peer %d mangled: %+v", i, out.Peers[i])
			}
		}
	}
}

func TestGossipDecodersRejectTruncationAndHostileCounts(t *testing.T) {
	ex := (&GossipExchange{
		From: "p:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 9,
		Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{5}, In: []float64{6}}},
	}).Encode(nil)
	rep := (&GossipReply{
		Applied: true, Out: []float64{1}, In: []float64{2},
		Peers: []LandmarkVec{{Addr: "q:2"}},
	}).Encode(nil)
	for i := 0; i < len(ex); i++ {
		if _, err := DecodeGossipExchange(ex[:i]); err == nil {
			t.Fatalf("GossipExchange truncated at %d accepted", i)
		}
	}
	for i := 0; i < len(rep); i++ {
		if _, err := DecodeGossipReply(rep[:i]); err == nil {
			t.Fatalf("GossipReply truncated at %d accepted", i)
		}
	}
	// A hostile peer count far beyond the payload must fail fast, not
	// allocate.
	hostile := (&GossipExchange{From: "p:1", Out: []float64{1}, In: []float64{2}, RTTMillis: 1}).Encode(nil)
	hostile = hostile[:len(hostile)-4] // strip the zero peer count
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeGossipExchange(hostile); err == nil {
		t.Fatal("hostile peer count accepted")
	}
	// NaN RTT is representable; the sentinel check is the peer's job.
	nan := (&GossipExchange{From: "p", RTTMillis: math.NaN()}).Encode(nil)
	if out, err := DecodeGossipExchange(nan); err != nil || !math.IsNaN(out.RTTMillis) {
		t.Fatalf("NaN RTT round trip = %+v, %v", out, err)
	}
}

func TestGossipTypeStrings(t *testing.T) {
	if TypeGossipExchange.String() != "GossipExchange" || TypeGossipReply.String() != "GossipReply" {
		t.Fatalf("gossip MsgType names: %v, %v", TypeGossipExchange, TypeGossipReply)
	}
}

func FuzzDecodeGossipExchange(f *testing.F) {
	f.Add((&GossipExchange{
		From: "p:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 7,
		Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{5}, In: []float64{6}}},
	}).Encode(nil))
	f.Add([]byte{})
	// Peer count claims more entries than the payload carries.
	f.Add([]byte{0, 1, 'p', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeGossipExchange(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same shape.
		out, err := DecodeGossipExchange(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-encoded GossipExchange does not round-trip: %v", err)
		}
		if out.From != m.From || len(out.Peers) != len(m.Peers) {
			t.Fatalf("round trip drifted: %+v vs %+v", out, m)
		}
	})
}

func FuzzDecodeGossipReply(f *testing.F) {
	f.Add((&GossipReply{
		Applied: true, Out: []float64{1}, In: []float64{2},
		Peers: []LandmarkVec{{Addr: "q:2", Out: []float64{3}, In: []float64{4}}},
	}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeGossipReply(data)
		if err != nil {
			return
		}
		out, err := DecodeGossipReply(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-encoded GossipReply does not round-trip: %v", err)
		}
		if out.Applied != m.Applied || len(out.Peers) != len(m.Peers) {
			t.Fatalf("round trip drifted: %+v vs %+v", out, m)
		}
	})
}

// refDecodeExchange and refDecodeReply are the message-at-a-time
// decoders GossipView replaced, kept as the reference FuzzGossipView
// checks the view against.
func refDecodeExchange(b []byte) (*GossipExchange, error) {
	m := &GossipExchange{}
	var err error
	if m.From, b, err = consumeString(b); err != nil {
		return nil, err
	}
	if m.Out, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.In, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.RTTMillis, b, err = consumeFloat(b); err != nil {
		return nil, err
	}
	if m.Peers, err = refPeerSample(b); err != nil {
		return nil, err
	}
	return m, nil
}

func refDecodeReply(b []byte) (*GossipReply, error) {
	m := &GossipReply{}
	var err error
	if m.Applied, b, err = consumeBool(b); err != nil {
		return nil, err
	}
	if m.Out, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.In, b, err = consumeFloats(b); err != nil {
		return nil, err
	}
	if m.Peers, err = refPeerSample(b); err != nil {
		return nil, err
	}
	return m, nil
}

func refPeerSample(b []byte) ([]LandmarkVec, error) {
	if len(b) < 4 {
		return nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxPayload/10 || 10*n > len(b) {
		return nil, ErrShortPayload
	}
	var peers []LandmarkVec
	var err error
	for i := 0; i < n; i++ {
		var p LandmarkVec
		if p.Addr, b, err = consumeString(b); err != nil {
			return nil, err
		}
		if p.Out, b, err = consumeFloats(b); err != nil {
			return nil, err
		}
		if p.In, b, err = consumeFloats(b); err != nil {
			return nil, err
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// sameFloats compares bit patterns, so NaNs compare equal and an empty
// slice equals nil.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func samePeers(v []PeerView, want []LandmarkVec) bool {
	if len(v) != len(want) {
		return false
	}
	for i, p := range v {
		if string(p.Addr) != want[i].Addr || !sameFloats(p.Out, want[i].Out) || !sameFloats(p.In, want[i].In) {
			return false
		}
	}
	return true
}

func sameLandmarks(a, b []LandmarkVec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !sameFloats(a[i].Out, b[i].Out) || !sameFloats(a[i].In, b[i].In) {
			return false
		}
	}
	return true
}

// FuzzGossipView: on any input, ParseExchange and ParseReply accept
// exactly what the reference decoders accept and yield equal fields,
// and so do the Decode wrappers. One view is reused across every input
// the fuzzer tries, and each input is also parsed right after a large
// message, so a field left over from an earlier, differently shaped
// parse (a stale slice tail, an old peer entry) shows up as a mismatch.
func FuzzGossipView(f *testing.F) {
	big := []LandmarkVec{
		{Addr: "a:1", Out: []float64{1, 2, 3}, In: []float64{4, 5, 6}},
		{Addr: "b:2", Out: []float64{7}, In: []float64{8}},
		{Addr: "c:3"},
	}
	bigEx := (&GossipExchange{From: "big:9", Out: []float64{9, 9, 9, 9}, In: []float64{8, 8, 8, 8}, RTTMillis: 3, Peers: big}).Encode(nil)
	bigRep := (&GossipReply{Applied: true, Out: []float64{9, 9, 9, 9}, In: []float64{8, 8, 8, 8}, Peers: big}).Encode(nil)
	f.Add(bigEx)
	f.Add(bigRep)
	f.Add((&GossipExchange{From: "p:1", Out: []float64{1}, In: []float64{2}, RTTMillis: -1}).Encode(nil))
	f.Add((&GossipReply{Peers: []LandmarkVec{{Addr: "r:1"}}}).Encode(nil))
	f.Add((&GossipReply{}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	var reused GossipView
	f.Fuzz(func(t *testing.T, data []byte) {
		var primed GossipView
		for _, v := range []*GossipView{&reused, &primed} {
			if err := primed.ParseExchange(bigEx); err != nil {
				t.Fatal(err)
			}
			want, werr := refDecodeExchange(data)
			err := v.ParseExchange(data)
			if (err == nil) != (werr == nil) {
				t.Fatalf("ParseExchange err %v, reference err %v", err, werr)
			}
			if err == nil && (string(v.From) != want.From || !sameFloats(v.Out, want.Out) ||
				!sameFloats(v.In, want.In) || math.Float64bits(v.RTTMillis) != math.Float64bits(want.RTTMillis) ||
				!samePeers(v.Peers, want.Peers)) {
				t.Fatalf("ParseExchange = %+v, reference %+v", v, want)
			}
			got, err := DecodeGossipExchange(data)
			if (err == nil) != (werr == nil) || err == nil && (got.From != want.From || !sameFloats(got.Out, want.Out) ||
				!sameFloats(got.In, want.In) || math.Float64bits(got.RTTMillis) != math.Float64bits(want.RTTMillis) ||
				!sameLandmarks(got.Peers, want.Peers)) {
				t.Fatalf("DecodeGossipExchange = %+v, %v; reference %+v, %v", got, err, want, werr)
			}

			if err := primed.ParseReply(bigRep); err != nil {
				t.Fatal(err)
			}
			wantR, werr := refDecodeReply(data)
			err = v.ParseReply(data)
			if (err == nil) != (werr == nil) {
				t.Fatalf("ParseReply err %v, reference err %v", err, werr)
			}
			if err == nil && (v.Applied != wantR.Applied || !sameFloats(v.Out, wantR.Out) ||
				!sameFloats(v.In, wantR.In) || !samePeers(v.Peers, wantR.Peers) ||
				v.From != nil || v.RTTMillis != 0) {
				t.Fatalf("ParseReply = %+v, reference %+v", v, wantR)
			}
			gotR, err := DecodeGossipReply(data)
			if (err == nil) != (werr == nil) || err == nil && (gotR.Applied != wantR.Applied ||
				!sameFloats(gotR.Out, wantR.Out) || !sameFloats(gotR.In, wantR.In) || !sameLandmarks(gotR.Peers, wantR.Peers)) {
				t.Fatalf("DecodeGossipReply = %+v, %v; reference %+v, %v", gotR, err, wantR, werr)
			}
		}
	})
}

// TestGossipViewParseZeroAlloc: once its storage has grown, a view
// parses both messages without allocating.
func TestGossipViewParseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	peers := []LandmarkVec{{Addr: "a:1", Out: []float64{1, 2}, In: []float64{3, 4}}, {Addr: "b:2"}}
	ex := (&GossipExchange{From: "p:1", Out: []float64{1, 2}, In: []float64{3, 4}, RTTMillis: 5, Peers: peers}).Encode(nil)
	rep := (&GossipReply{Applied: true, Out: []float64{1, 2}, In: []float64{3, 4}, Peers: peers}).Encode(nil)
	var v GossipView
	allocs := testing.AllocsPerRun(100, func() {
		if v.ParseExchange(ex) != nil || v.ParseReply(rep) != nil {
			t.Fatal("parse failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm view parse allocates %.1f times, want 0", allocs)
	}
}

// TestGossipViewDropsHugeStorage: a view that once parsed a message
// far larger than the arena's retention cap does not keep that storage
// past its next parse.
func TestGossipViewDropsHugeStorage(t *testing.T) {
	huge := make([]float64, 2*arenaMaxRetain/8)
	var v GossipView
	if err := v.ParseReply((&GossipReply{Out: huge, In: []float64{1}}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := v.ParseReply((&GossipReply{Out: []float64{1}, In: []float64{2}}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if c := 8 * cap(v.floats); c > arenaMaxRetain {
		t.Fatalf("view keeps %d bytes of float storage after a small parse, cap %d", c, arenaMaxRetain)
	}
	if v.Out[0] != 1 || v.In[0] != 2 {
		t.Fatalf("small parse = %v %v", v.Out, v.In)
	}
}
