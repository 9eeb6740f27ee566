package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Dialer opens new connections (required). *net.Dialer and
	// *simnet.Host both work.
	Dialer Dialer
	// MaxIdlePerHost caps how many idle lockstep connections are kept per
	// address; surplus connections are closed when returned. Default 4.
	// Negative keeps none, so every lockstep call dials. Unused by the
	// multiplexed discipline.
	MaxIdlePerHost int
	// IdleTimeout retires lockstep connections that sat idle longer than
	// this: they are closed at the next checkout instead of reused. It
	// should stay below the server's own idle budget so the pool retires
	// connections before the peer does. Default 60s.
	IdleTimeout time.Duration
	// CallTimeout bounds a Call whose context carries no deadline of its
	// own. Default 15s. Negative disables the fallback.
	CallTimeout time.Duration
	// MuxConns is how many multiplexed (v2 framing) connections the pool
	// maintains per address: calls fill the first connection under half
	// its stream window (concentrating streams where write coalescing
	// pays), spill to the least-loaded one past that, and the set grows
	// lazily up to this cap as spill load appears. Default 2. Negative
	// selects the lockstep discipline instead: one v1 exchange at a time
	// per connection, from an idle list bounded by MaxIdlePerHost.
	MuxConns int
	// MuxMaxInflight is the in-flight stream window requested per mux
	// connection; the server may negotiate it down. Default 256.
	MuxMaxInflight int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxIdlePerHost == 0 {
		c.MaxIdlePerHost = 4
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 15 * time.Second
	}
	if c.MuxConns == 0 {
		c.MuxConns = 2
	}
	if c.MuxMaxInflight == 0 {
		c.MuxMaxInflight = DefaultMuxInflight
	}
	return c
}

// PoolStats counts pool activity since creation. Reuses/(Dials+Reuses) is
// the hit rate; Retries counts calls transparently replayed on a fresh
// connection after a pooled one turned out to be dead.
type PoolStats struct {
	Dials   int64
	Reuses  int64
	Retries int64
	// Discards counts connections dropped for any reason: broken during a
	// call, idled out, or surplus over MaxIdlePerHost.
	Discards int64
	// Idle is the number of connections currently parked in the pool
	// across all hosts — a point-in-time gauge, not a lifetime counter.
	Idle int
}

// errPoolClosed fails calls on a closed Pool.
var errPoolClosed = errors.New("transport: pool is closed")

// Pool is a client-side connection pool for the IDES request/response
// protocol. Call performs one exchange over a pooled persistent
// connection instead of dialing per request, under one of two
// disciplines fixed at construction:
//
//   - multiplexed (the default): a small per-address set of MuxConns,
//     each carrying many concurrent streams. Every connection opens
//     with the Hello handshake; a peer that refuses it fails the call
//     the way a failed dial does.
//   - lockstep (MuxConns < 0): one v1 exchange at a time per
//     connection, reused LIFO (the warmest connection first) from an
//     idle list capped at MaxIdlePerHost and aged out by IdleTimeout.
//
// The server serves any number of frames per connection, so a pooled
// connection stays valid until the server's idle budget expires it. A
// reused connection can always have died meanwhile (server restart,
// idle eviction, middlebox timeout); Call transparently retries exactly
// once on a fresh connection when that happens. All IDES exchanges are
// idempotent request/response pairs, so the single replay is safe.
//
// A Pool is safe for concurrent use. The zero value is not usable;
// create with NewPool and release with Close.
type Pool struct {
	cfg PoolConfig

	mu     sync.Mutex
	hosts  map[string]*hostPool
	closed bool
	// retired holds the counters of host entries deleted once they held
	// no connections and no callers, so Stats stays exact while hosts
	// only lists the endpoints in use.
	retired PoolStats
	// vecs, once RegisterMetrics runs, are the per-endpoint labelled
	// families new hostPools resolve their cached children from.
	vecs *poolVecs

	// arena recycles the frame/decode scratch buffers Call hands to each
	// exchange. Buffers live here — not on parked idle connections — so
	// an idle pool never pins payload-sized memory.
	arena wire.Arena
}

// readers recycles the lockstep connections' 4 KiB buffered readers: a
// dial-per-call pool would otherwise allocate one per call.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// pooledConn is one pool-owned lockstep connection: the raw conn, a
// small fixed-size buffered reader that lives with it (so header+payload
// replies cost one read syscall), and a decode/frame scratch buffer
// attached only while the connection is checked out by Call. put and
// discard release the scratch back to the pool arena, so a burst of
// large replies cannot stay pinned by connections parked idle.
type pooledConn struct {
	net.Conn
	br      *bufio.Reader
	scratch []byte
}

// hostPool tracks one address's connections under the pool mutex: the
// LIFO idle list of lockstep connections and the set of multiplexed
// connections. Only one of the two is ever used, per the pool's
// discipline.
type hostPool struct {
	// users counts the calls in flight on this endpoint, under p.mu; an
	// entry with users, connections or a dial in progress is never
	// deleted.
	users int

	// idle is ordered oldest first, so the expired entries are always a
	// prefix.
	idle []idleConn

	// mux is the set of live multiplexed connections (fill-first pick;
	// grown lazily up to PoolConfig.MuxConns). muxDialing dedups dials;
	// muxWait, when non-nil, is closed as the in-progress dial resolves
	// so callers with no live conn can park for it.
	mux        []*MuxConn
	muxDialing bool
	muxWait    chan struct{}

	// stats are this endpoint's own counters, feeding EndpointStats,
	// Stats and the labelled metric children.
	stats hostStats
	// mets caches this endpoint's labelled instrument children so the
	// hot path increments an atomic instead of taking the vec's child
	// lookup lock per call. Swapped atomically because counting happens
	// outside p.mu; nil until RegisterMetrics.
	mets atomic.Pointer[endpointMetrics]
}

// noMetrics is the shared children bundle before RegisterMetrics: all
// instruments nil, every method a no-op.
var noMetrics endpointMetrics

// m returns the endpoint's cached children, never nil.
func (hp *hostPool) m() *endpointMetrics {
	if m := hp.mets.Load(); m != nil {
		return m
	}
	return &noMetrics
}

// syncIdleGauge publishes the idle-list length to the endpoint's gauge.
// Callers hold p.mu (the idle list is only mutated under it).
func (hp *hostPool) syncIdleGauge() { hp.m().idle.Set(float64(len(hp.idle))) }

func (hp *hostPool) countDial() {
	hp.stats.dials.Add(1)
	hp.m().dials.Inc()
}

func (hp *hostPool) countReuse() {
	hp.stats.reuses.Add(1)
	hp.m().reuses.Inc()
}

func (hp *hostPool) countRetry() {
	hp.stats.retries.Add(1)
	hp.m().retries.Inc()
}

func (hp *hostPool) countDiscard() {
	hp.stats.discards.Add(1)
	hp.m().discards.Inc()
}

// hostStats are one endpoint's lifetime counters.
type hostStats struct {
	dials, reuses, retries, discards atomic.Int64
}

// endpointMetrics holds one endpoint's labelled children of the
// ides_pool_* families.
type endpointMetrics struct {
	dials, reuses, retries, discards *telemetry.Counter
	idle                             *telemetry.Gauge
}

// poolVecs are the per-endpoint metric families, labelled by server
// address.
type poolVecs struct {
	dials, reuses, retries, discards *telemetry.CounterVec
	idle                             *telemetry.GaugeVec
}

// resolve materializes hp's cached children for addr.
func (v *poolVecs) resolve(addr string, hp *hostPool) {
	hp.mets.Store(&endpointMetrics{
		dials:    v.dials.With(addr),
		reuses:   v.reuses.With(addr),
		retries:  v.retries.With(addr),
		discards: v.discards.With(addr),
		idle:     v.idle.With(addr),
	})
}

type idleConn struct {
	c     *pooledConn
	since time.Time
}

// NewPool validates cfg, applies defaults, and builds a Pool.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Dialer == nil {
		return nil, errors.New("transport: pool needs a Dialer")
	}
	return &Pool{cfg: cfg.withDefaults(), hosts: make(map[string]*hostPool)}, nil
}

// Call performs one request/response exchange with the IDES peer at addr
// over a pooled connection, with Roundtrip's semantics: a wire.Error
// response is decoded and returned as an error (the connection is healthy
// and stays pooled). If the context carries no deadline the pool's
// CallTimeout applies.
func (p *Pool) Call(ctx context.Context, addr string, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	rt, rp, _, err := p.call(ctx, addr, t, payload, nil, true)
	return rt, rp, err
}

// CallInto is Call with caller-managed memory, mirroring RoundtripInto:
// the exchange runs through buf and the reply payload aliases the
// returned scratch, valid only until the scratch is reused. The request
// payload must not alias buf. A steady caller that threads the scratch
// from one call to the next performs zero heap allocations per exchange.
func (p *Pool) CallInto(ctx context.Context, addr string, t wire.MsgType, payload, buf []byte) (wire.MsgType, []byte, []byte, error) {
	return p.call(ctx, addr, t, payload, buf, false)
}

// isWireError reports whether err is (or wraps) a wire.Error — an
// application-level error frame from a healthy connection. The test
// lives in a helper so its errors.As target only materializes on the
// error path: taking the target's address inline would heap-allocate it
// on every successful call.
func isWireError(err error) bool {
	var werr *wire.Error
	return errors.As(err, &werr)
}

// call applies the default deadline and runs the exchange under the
// pool's discipline. With copyOut set (Call) the scratch buffer comes
// from the pool arena and the reply is copied into a fresh caller-owned
// slice before the scratch is recycled; otherwise (CallInto) buf is the
// caller's and the reply aliases it.
func (p *Pool) call(ctx context.Context, addr string, t wire.MsgType, payload, buf []byte, copyOut bool) (wire.MsgType, []byte, []byte, error) {
	if _, ok := ctx.Deadline(); !ok && p.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.CallTimeout)
		defer cancel()
	}
	hp, err := p.acquire(addr)
	if err != nil {
		return 0, nil, buf, err
	}
	defer p.release(addr, hp)
	if p.cfg.MuxConns < 0 {
		return p.callLockstep(ctx, addr, hp, t, payload, buf, copyOut)
	}
	return p.callMux(ctx, addr, hp, t, payload, buf, copyOut)
}

// acquire returns addr's host entry, creating it on first use, and
// counts the caller as one of its users until release.
func (p *Pool) acquire(addr string) (*hostPool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errPoolClosed
	}
	hp := p.hosts[addr]
	if hp == nil {
		hp = &hostPool{}
		if p.vecs != nil {
			p.vecs.resolve(addr, hp)
		}
		p.hosts[addr] = hp
	}
	hp.users++
	return hp, nil
}

// release ends a call's use of hp. An entry left with no users, no
// connections, no dial in progress and no metric children is deleted,
// its counters folded into the pool's retired totals: a dial-per-call
// pool that talks to ever new addresses must not keep one entry per
// address it ever called.
func (p *Pool) release(addr string, hp *hostPool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hp.users--
	if hp.users > 0 || len(hp.idle) > 0 || len(hp.mux) > 0 || hp.muxDialing || hp.mets.Load() != nil {
		return
	}
	p.retired.add(hp.snapshot())
	delete(p.hosts, addr)
}

// callLockstep performs the exchange over a checked-out v1 connection.
func (p *Pool) callLockstep(ctx context.Context, addr string, hp *hostPool, t wire.MsgType, payload, buf []byte, copyOut bool) (wire.MsgType, []byte, []byte, error) {
	for attempt := 0; ; attempt++ {
		// The retry attempt must not pop another pooled connection: when
		// one idle connection turns out dead its cohort (same server
		// restart or idle eviction) almost certainly is too, so the
		// replay flushes the idle list and dials fresh.
		pc, reused, err := p.get(ctx, addr, hp, attempt > 0)
		if err != nil {
			return 0, nil, buf, err
		}
		scratch := buf
		if copyOut {
			if pc.scratch == nil {
				pc.scratch = p.arena.Get(wire.HeaderSize + len(payload))
			}
			scratch = pc.scratch
		}
		var rt wire.MsgType
		var rp []byte
		rt, rp, scratch, err = roundtripInto(ctx, pc, pc.br, t, payload, scratch)
		if copyOut {
			pc.scratch = scratch
		} else {
			buf = scratch
		}
		if err == nil || isWireError(err) {
			// The exchange completed (possibly with an application-level
			// error frame); the connection stays good. The copy-out must
			// happen before put releases the scratch for reuse.
			if copyOut && len(rp) > 0 {
				rp = append([]byte(nil), rp...)
			}
			p.put(hp, pc)
			return rt, rp, buf, err
		}
		p.discard(hp, pc)
		if reused && attempt == 0 && ctx.Err() == nil {
			// The pooled connection most likely died while idle; one
			// replay on a fresh connection.
			hp.countRetry()
			continue
		}
		return 0, nil, buf, err
	}
}

// callMux performs the exchange over a multiplexed connection. A call
// that fails because its mux connection died is replayed once on a
// fresh one, mirroring the lockstep retry.
func (p *Pool) callMux(ctx context.Context, addr string, hp *hostPool, t wire.MsgType, payload, buf []byte, copyOut bool) (wire.MsgType, []byte, []byte, error) {
	for attempt := 0; ; attempt++ {
		mc, err := p.getMux(ctx, addr, hp)
		if err != nil {
			return 0, nil, buf, err
		}
		scratch := buf
		if copyOut {
			scratch = p.arena.Get(wire.MuxHeaderSize + len(payload))
		}
		var rt wire.MsgType
		var rp []byte
		rt, rp, scratch, err = mc.CallInto(ctx, t, payload, scratch)
		if err == nil || isWireError(err) {
			hp.countReuse()
			if copyOut {
				if len(rp) > 0 {
					rp = append([]byte(nil), rp...)
				}
				p.arena.Put(scratch)
				return rt, rp, buf, err
			}
			return rt, rp, scratch, err
		}
		if copyOut {
			p.arena.Put(scratch)
		} else {
			buf = scratch
		}
		if mc.Dead() {
			p.dropMux(hp, mc)
			if attempt == 0 && ctx.Err() == nil {
				hp.countRetry()
				continue
			}
		}
		return 0, nil, buf, err
	}
}

// getMux returns a live mux connection to addr — fill-first under half
// the stream window, least-loaded past it — dialing the first one (or
// a replacement after a failure) inline and growing the set in the
// background once every existing connection is past the spill
// threshold.
func (p *Pool) getMux(ctx context.Context, addr string, hp *hostPool) (*MuxConn, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, errPoolClosed
		}
		live := hp.mux[:0]
		for _, mc := range hp.mux {
			if mc.Dead() {
				hp.countDiscard()
			} else {
				live = append(live, mc)
			}
		}
		hp.mux = live
		// Fill-first routing: keep streams concentrated on the first
		// connection still under half its window — write coalescing
		// amortizes syscalls best on a busy conn — and spill to the
		// least-loaded one only when every conn is past that threshold,
		// growing the set toward the cap as spill load appears.
		var best *MuxConn
		var bestLoad int64
		spill := true
		for _, mc := range hp.mux {
			load := mc.Inflight()
			if load < int64(mc.Window()+1)/2 {
				best, spill = mc, false
				break
			}
			if best == nil || load < bestLoad {
				best, bestLoad = mc, load
			}
		}
		if best != nil {
			if spill && len(hp.mux) < p.cfg.MuxConns && !hp.muxDialing {
				hp.muxDialing = true
				go p.addMuxConn(addr, hp)
			}
			p.mu.Unlock()
			return best, nil
		}
		if hp.muxDialing {
			// Someone (inline or background) is already dialing; park
			// until that dial resolves rather than stampeding the server.
			if hp.muxWait == nil {
				hp.muxWait = make(chan struct{})
			}
			ch := hp.muxWait
			p.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, fmt.Errorf("transport: waiting for mux connection to %s: %w", addr, ctx.Err())
			}
			p.mu.Lock()
			continue
		}
		hp.muxDialing = true
		p.mu.Unlock()
		mc, err := p.dialMux(ctx, addr, hp)
		p.mu.Lock()
		p.muxDialDoneLocked(hp)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if p.closed {
			p.mu.Unlock()
			mc.Close()
			return nil, errPoolClosed
		}
		hp.mux = append(hp.mux, mc)
		p.mu.Unlock()
		return mc, nil
	}
}

// muxDialDoneLocked clears the dial-in-progress marker and wakes any
// callers parked on it. Caller holds p.mu.
func (p *Pool) muxDialDoneLocked(hp *hostPool) {
	hp.muxDialing = false
	if hp.muxWait != nil {
		close(hp.muxWait)
		hp.muxWait = nil
	}
}

// dial opens a raw connection to addr and counts it.
func (p *Pool) dial(ctx context.Context, addr string, hp *hostPool) (net.Conn, error) {
	c, err := p.cfg.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	hp.countDial()
	return c, nil
}

// dialMux dials addr and negotiates mux framing. A refused or failed
// handshake closes the connection and fails like a failed dial.
func (p *Pool) dialMux(ctx context.Context, addr string, hp *hostPool) (*MuxConn, error) {
	c, err := p.dial(ctx, addr, hp)
	if err != nil {
		return nil, err
	}
	mc, err := NewMuxConn(ctx, c, p.cfg.MuxMaxInflight)
	if err != nil {
		c.Close()
		hp.countDiscard()
		return nil, fmt.Errorf("transport: connecting to %s: %w", addr, err)
	}
	return mc, nil
}

// addMuxConn grows hp's mux set by one connection in the background,
// so the growth dial never sits on a caller's latency. The caller set
// hp.muxDialing before spawning.
func (p *Pool) addMuxConn(addr string, hp *hostPool) {
	ctx := context.Background()
	if p.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.CallTimeout)
		defer cancel()
	}
	mc, err := p.dialMux(ctx, addr, hp)
	p.mu.Lock()
	p.muxDialDoneLocked(hp)
	keep := err == nil && !p.closed && len(hp.mux) < p.cfg.MuxConns
	if keep {
		hp.mux = append(hp.mux, mc)
	}
	p.mu.Unlock()
	if err == nil && !keep {
		mc.Close()
	}
}

// dropMux removes a dead mux connection from hp's set.
func (p *Pool) dropMux(hp *hostPool, mc *MuxConn) {
	mc.Close()
	p.mu.Lock()
	for i, c := range hp.mux {
		if c == mc {
			hp.mux = append(hp.mux[:i], hp.mux[i+1:]...)
			hp.countDiscard()
			break
		}
	}
	p.mu.Unlock()
}

// MuxStats aggregates traffic counters across every live mux connection
// in the pool.
func (p *Pool) MuxStats() MuxStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out MuxStats
	for _, hp := range p.hosts {
		for _, mc := range hp.mux {
			s := mc.Stats()
			out.Flushes += s.Flushes
			out.Frames += s.Frames
			out.Coalesced += s.Coalesced
			out.Stale += s.Stale
		}
	}
	return out
}

// Stats returns a snapshot of the pool's activity counters since
// creation: the sum of EndpointStats over the live endpoints plus the
// totals of the endpoints retired since.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.retired
	for _, hp := range p.hosts {
		out.add(hp.snapshot())
	}
	return out
}

func (s *PoolStats) add(o PoolStats) {
	s.Dials += o.Dials
	s.Reuses += o.Reuses
	s.Retries += o.Retries
	s.Discards += o.Discards
	s.Idle += o.Idle
}

// EndpointStats returns each endpoint's own counters, keyed by server
// address. A multi-server client pools connections to several endpoints
// at once; the aggregate Stats hides which endpoint is churning
// (redialing, discarding) while the others hum, which is exactly what
// failover debugging needs to see. Only live endpoints are listed: an
// endpoint that holds no connections and has no call in flight is
// retired (unless RegisterMetrics has given it labelled children), and
// its counters then count only in Stats.
func (p *Pool) EndpointStats() map[string]PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PoolStats, len(p.hosts))
	for addr, hp := range p.hosts {
		out[addr] = hp.snapshot()
	}
	return out
}

// snapshot reads hp's counters. Callers hold p.mu.
func (hp *hostPool) snapshot() PoolStats {
	return PoolStats{
		Dials:    hp.stats.dials.Load(),
		Reuses:   hp.stats.reuses.Load(),
		Retries:  hp.stats.retries.Load(),
		Discards: hp.stats.discards.Load(),
		Idle:     len(hp.idle),
	}
}

// RegisterMetrics exposes the pool's counters through reg under the
// ides_pool_* families, labelled by server endpoint — the scrapeable
// replacement for logging a one-shot Stats() line at exit. Endpoints
// appear in the exposition as they are first dialed. Safe on a nil
// registry.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	vecs := &poolVecs{
		dials: reg.CounterVec("ides_pool_dials_total",
			"Connections dialed by the client pool, by server endpoint.", "endpoint"),
		reuses: reg.CounterVec("ides_pool_reuses_total",
			"Calls served over a pooled connection, by server endpoint.", "endpoint"),
		retries: reg.CounterVec("ides_pool_retries_total",
			"Calls replayed on a fresh connection after a pooled one died, by server endpoint.", "endpoint"),
		discards: reg.CounterVec("ides_pool_discards_total",
			"Connections dropped (broken, idled out, or surplus), by server endpoint.", "endpoint"),
		idle: reg.GaugeVec("ides_pool_idle_conns",
			"Connections currently idle in the pool, by server endpoint.", "endpoint"),
	}
	p.mu.Lock()
	p.vecs = vecs
	for addr, hp := range p.hosts {
		vecs.resolve(addr, hp)
		m := hp.m()
		m.dials.Add(uint64(hp.stats.dials.Load()))
		m.reuses.Add(uint64(hp.stats.reuses.Load()))
		m.retries.Add(uint64(hp.stats.retries.Load()))
		m.discards.Add(uint64(hp.stats.discards.Load()))
		m.idle.Set(float64(len(hp.idle)))
	}
	p.mu.Unlock()
	reg.CounterFunc("ides_pool_arena_hits_total",
		"Scratch-buffer checkouts served from the recycling arena.",
		func() float64 { return float64(p.arena.Stats().Hits) })
	reg.CounterFunc("ides_pool_arena_misses_total",
		"Scratch-buffer checkouts that had to allocate.",
		func() float64 { return float64(p.arena.Stats().Misses) })
	reg.CounterFunc("ides_pool_arena_drops_total",
		"Scratch buffers dropped at return for exceeding the retention cap.",
		func() float64 { return float64(p.arena.Stats().Drops) })
}

// ArenaStats reports the pool's scratch-buffer arena traffic.
func (p *Pool) ArenaStats() wire.ArenaStats { return p.arena.Stats() }

// Close closes every idle and multiplexed connection and marks the pool
// closed: future Calls fail, and checked-out lockstep connections are
// closed as they come back. Safe to call twice.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, hp := range p.hosts {
		for _, ic := range hp.idle {
			ic.c.Close()
		}
		hp.idle = nil
		hp.syncIdleGauge()
		for _, mc := range hp.mux {
			mc.Close()
		}
		hp.mux = nil
		p.muxDialDoneLocked(hp)
	}
	return nil
}

// get checks out a lockstep connection to addr: the warmest idle one
// when available (reused = true), otherwise a fresh dial. Idle
// connections past IdleTimeout are closed on the way. mustDial closes
// the whole idle list instead of reusing from it: a retry after a dead
// pooled connection must not gamble on the rest of the same cohort.
func (p *Pool) get(ctx context.Context, addr string, hp *hostPool, mustDial bool) (conn *pooledConn, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errPoolClosed
	}
	cutoff := time.Now().Add(-p.cfg.IdleTimeout)
	expired := 0
	for expired < len(hp.idle) && (mustDial || hp.idle[expired].since.Before(cutoff)) {
		expired++
	}
	// Later appends to the idle list write past its end, never into the
	// dropped prefix, so stale stays readable after the unlock.
	stale := hp.idle[:expired]
	hp.idle = hp.idle[expired:]
	if n := len(hp.idle); n > 0 {
		conn = hp.idle[n-1].c
		hp.idle = hp.idle[:n-1]
	}
	hp.syncIdleGauge()
	p.mu.Unlock()
	for _, ic := range stale {
		p.discard(hp, ic.c)
	}
	if conn != nil {
		hp.countReuse()
		return conn, true, nil
	}
	c, err := p.dial(ctx, addr, hp)
	if err != nil {
		return nil, false, err
	}
	br := readers.Get().(*bufio.Reader)
	br.Reset(c)
	return &pooledConn{Conn: c, br: br}, false, nil
}

// put returns a healthy connection to hp's idle list, or closes it when
// the pool is closed or the idle list is full. Either way the
// connection's scratch buffer goes back to the arena first: parked idle
// connections hold only the conn and its fixed 4 KiB read buffer, never
// payload-sized decode scratch.
func (p *Pool) put(hp *hostPool, conn *pooledConn) {
	p.releaseScratch(conn)
	p.mu.Lock()
	if p.closed || len(hp.idle) >= p.cfg.MaxIdlePerHost {
		p.mu.Unlock()
		p.discard(hp, conn)
		return
	}
	hp.idle = append(hp.idle, idleConn{c: conn, since: time.Now()})
	hp.syncIdleGauge()
	p.mu.Unlock()
}

// releaseScratch detaches conn's scratch buffer, if any, and recycles it.
func (p *Pool) releaseScratch(conn *pooledConn) {
	if conn.scratch != nil {
		p.arena.Put(conn.scratch)
		conn.scratch = nil
	}
}

// discard closes a connection the pool will not keep and recycles its
// reader.
func (p *Pool) discard(hp *hostPool, conn *pooledConn) {
	p.releaseScratch(conn)
	conn.Close()
	conn.br.Reset(nil)
	readers.Put(conn.br)
	conn.br = nil
	hp.countDiscard()
}

// idleScratchBytes sums the scratch capacity pinned by parked idle
// connections (test hook). put releases scratch before parking, so this
// must stay zero — the regression guard for idle-list buffer retention.
func (p *Pool) idleScratchBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, hp := range p.hosts {
		for _, ic := range hp.idle {
			n += cap(ic.c.scratch)
		}
	}
	return n
}
