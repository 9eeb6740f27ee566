package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// arenaMaxRetain caps the capacity of buffers the Arena will recycle.
// A burst of oversized frames (model transfers run to megabytes) must
// not leave payload-sized buffers parked in the pool forever; anything
// bigger is dropped for the GC to reclaim.
const arenaMaxRetain = 1 << 20

// Arena is a sync.Pool-backed recycler for frame payload buffers. The
// zero value is ready to use. Get hands out a zero-length buffer with at
// least the requested capacity; Put recycles it. Ownership is explicit:
// a buffer handed to Put must not be read again by the caller.
//
// Hit/miss counters are plain atomics (not telemetry handles) so the
// package stays dependency-free; owners bridge them into a telemetry
// registry with CounterFuncs.
type Arena struct {
	pool sync.Pool // of *[]byte holding a buffer
	// boxes recycles the *[]byte holders Get empties, so Put boxes a
	// buffer without allocating.
	boxes                     sync.Pool // of empty *[]byte
	hits, misses, puts, drops atomic.Uint64
}

// ArenaStats is a point-in-time snapshot of arena traffic.
type ArenaStats struct {
	// Hits counts Gets served from recycled buffers, Misses Gets that
	// had to allocate (empty pool or too-small recycled buffer).
	Hits, Misses uint64
	// Puts counts buffers returned; Drops the returns discarded for
	// exceeding the retention cap.
	Puts, Drops uint64
}

// Get returns a zero-length buffer with capacity at least n.
func (a *Arena) Get(n int) []byte {
	if p, _ := a.pool.Get().(*[]byte); p != nil {
		if b := *p; cap(b) >= n {
			*p = nil
			a.boxes.Put(p)
			a.hits.Add(1)
			return b[:0]
		}
		// Too small for this request: recycle it for a smaller one and
		// allocate fresh below.
		a.pool.Put(p)
	}
	a.misses.Add(1)
	if n < 512 {
		n = 512
	}
	return make([]byte, 0, n)
}

// Put recycles b. Buffers over the retention cap are dropped so bursts
// of huge frames do not pin their high-water mark.
func (a *Arena) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	if cap(b) > arenaMaxRetain {
		a.drops.Add(1)
		return
	}
	a.puts.Add(1)
	p, _ := a.boxes.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	a.pool.Put(p)
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		Hits:   a.hits.Load(),
		Misses: a.misses.Load(),
		Puts:   a.puts.Load(),
		Drops:  a.drops.Load(),
	}
}

// ReadFrameInto reads one frame from r into buf, growing it only when
// the payload exceeds its capacity. It returns the message type, the
// payload (an alias of the returned scratch buffer), and the scratch
// buffer to pass to the next call. The payload is valid only until the
// scratch is reused; callers that keep data must copy it out (every
// Decode* already does). A steady-state reader — the server's
// per-connection loop, a pooled client — re-reads into the same buffer
// and never allocates.
func ReadFrameInto(r io.Reader, buf []byte) (MsgType, []byte, []byte, error) {
	// The header is read into the scratch buffer, not a local array: a
	// stack array's slice would escape through the io.Reader interface
	// and cost one heap allocation per frame.
	if cap(buf) < HeaderSize {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		// Propagate io.EOF untouched so callers can detect clean shutdown.
		if err == io.EOF {
			return 0, nil, buf[:0], io.EOF
		}
		return 0, nil, buf[:0], fmt.Errorf("wire: reading header: %w", err)
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, nil, buf[:0], ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, nil, buf[:0], ErrBadVersion
	}
	t := MsgType(hdr[3])
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	if n > MaxPayload {
		return 0, nil, buf[:0], ErrFrameTooBig
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf[:0], fmt.Errorf("wire: reading payload: %w", err)
	}
	return t, payload, buf[:0], nil
}

// ReadMuxFrameInto reads one frame from r into buf, accepting both v1
// (lockstep) and v2 (multiplexed) framing: a v1 frame reports stream 0,
// a v2 frame reports the stream ID it carries. Buffer discipline is the
// same as ReadFrameInto — the payload aliases the returned scratch and a
// steady-state reader never allocates. Mux connection loops use this on
// both sides so a handshake frame (v1) and the stream frames after it
// (v2) flow through one reader.
func ReadMuxFrameInto(r io.Reader, buf []byte) (MsgType, uint32, []byte, []byte, error) {
	if cap(buf) < MuxHeaderSize {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, 0, nil, buf[:0], io.EOF
		}
		return 0, 0, nil, buf[:0], fmt.Errorf("wire: reading header: %w", err)
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, 0, nil, buf[:0], ErrBadMagic
	}
	version := hdr[2]
	if version != Version && version != VersionMux {
		return 0, 0, nil, buf[:0], ErrBadVersion
	}
	t := MsgType(hdr[3])
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	if n > MaxPayload {
		return 0, 0, nil, buf[:0], ErrFrameTooBig
	}
	var stream uint32
	if version == VersionMux {
		sb := buf[HeaderSize:MuxHeaderSize]
		if _, err := io.ReadFull(r, sb); err != nil {
			return 0, 0, nil, buf[:0], fmt.Errorf("wire: reading stream id: %w", err)
		}
		stream = binary.BigEndian.Uint32(sb)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, buf[:0], fmt.Errorf("wire: reading payload: %w", err)
	}
	return t, stream, payload, buf[:0], nil
}
