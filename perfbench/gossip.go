package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ides-go/ides/internal/harness"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// gossip scale: 1,000 DMFSGD peers of dimension 8 with 16 neighbours
// each, one rendezvous directory, driven single-threaded in index
// order. Accuracy and the coordinate digest are taken after
// gossipRounds full rounds; the fleet then keeps gossiping until the
// window closes.
const (
	gossipPeers     = 1000
	gossipDim       = 8
	gossipNeighbors = 16
	gossipRounds    = 60
	// gossipCheckRounds is how many rounds two same-seed fleets run
	// before their coordinate digests must agree.
	gossipCheckRounds = 5
	// gossipSources×gossipTargets peer pairs are scored for accuracy.
	gossipSources = 200
	gossipTargets = 10
	// gossipProbes is how many outside exchanges and dials a traced run
	// times.
	gossipProbes = 300
	// gossipSetups is how many fleets a run builds; setup_s is the
	// median.
	gossipSetups = 5
)

// newFleet builds the fleet and announces every peer to the rendezvous
// once, in index order, as part of set-up. Without that bootstrap the
// first peer's first round finds an empty directory and fails with
// peer.ErrNoNeighbors: a start-up event, not an exchange. After it,
// every table but the first announcer's holds neighbours, and that one
// re-announces at its first round, when the directory is full.
func newFleet(ctx context.Context, seed int64, reg *telemetry.Registry) (*harness.GossipCluster, error) {
	g, err := harness.NewGossip(harness.GossipConfig{
		NumPeers:     gossipPeers,
		Dim:          gossipDim,
		MaxNeighbors: gossipNeighbors,
		Seed:         seed,
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.NumPeers(); i++ {
		if err := g.Peer(i).Announce(ctx); err != nil {
			g.Close()
			return nil, fmt.Errorf("bootstrap announce: %w", err)
		}
	}
	return g, nil
}

// coordDigest hashes every peer's coordinates bit for bit.
func coordDigest(g *harness.GossipCluster) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range g.Coordinates() {
		for _, v := range row {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// roundRunner runs fleet rounds peer by peer in index order, timing
// each peer's round and the time spent in rounds.
type roundRunner struct {
	g       *harness.GossipCluster
	rec     *Recorder
	rounds  latencies
	busy    time.Duration
	fleet   int // full fleet rounds driven
	peerOps int64
	failed  int64
}

func (d *roundRunner) round(ctx context.Context) {
	start := time.Now()
	for i := 0; i < d.g.NumPeers(); i++ {
		t0 := time.Now()
		h := d.rec.Begin("op.gossip_round", -1)
		err := d.g.Peer(i).GossipRound(ctx)
		d.rec.End(h)
		d.peerOps++
		if err != nil {
			d.failed++
			continue
		}
		d.rounds.addAt(time.Since(t0), d.busy+time.Since(start))
	}
	d.busy += time.Since(start)
	d.fleet++
}

// gossipRun is one fleet's timed life: gossipRounds scored rounds, the
// digest and accuracy, then more rounds until the window's round time
// is spent.
type gossipRun struct {
	rssMB       float64 // peak RSS once the scored rounds are done
	digest      string
	acc         harness.Accuracy
	d           *roundRunner
	checkDigest string
}

func driveFleet(ctx context.Context, g *harness.GossipCluster, window time.Duration, rec *Recorder) (gossipRun, error) {
	d := &roundRunner{g: g, rec: rec}
	var run gossipRun
	for d.fleet < gossipRounds {
		d.round(ctx)
		if d.fleet == gossipCheckRounds {
			run.checkDigest = coordDigest(g)
		}
	}
	run.digest = coordDigest(g)
	acc, err := g.MeasureAccuracy(ctx, gossipSources, gossipTargets)
	if err != nil {
		return run, fmt.Errorf("accuracy: %w", err)
	}
	run.acc = acc
	run.rssMB = peakRSSMB()
	for d.busy < window {
		d.round(ctx)
	}
	run.d = d
	return run, nil
}

func runGossip(cfg runConfig, r *report) error {
	ctx := context.Background()
	if cfg.trace {
		return traceGossip(ctx, cfg, r)
	}
	// The first fleet doubles as the determinism witness: after
	// gossipCheckRounds rounds its coordinates must match the measured
	// fleet's bit for bit.
	var witness string
	g, setupTimes, err := repeatSetup(gossipSetups, func() (*harness.GossipCluster, error) {
		return newFleet(ctx, cfg.seed, nil)
	}, func(g *harness.GossipCluster) {
		if witness == "" {
			d := &roundRunner{g: g}
			for d.fleet < gossipCheckRounds {
				d.round(ctx)
			}
			witness = coordDigest(g)
		}
		g.Close()
	})
	if err != nil {
		return err
	}
	defer g.Close()
	r.logf("setup: %v s (median of %d)", setupTimes, gossipSetups)

	run, err := driveFleet(ctx, g, cfg.window(), nil)
	if err != nil {
		return err
	}
	d, rss := run.d, run.rssMB
	if run.checkDigest != witness {
		r.wrong(fmt.Errorf("same-seed fleets diverged after %d rounds: digest %s vs %s", gossipCheckRounds, run.checkDigest, witness))
	}
	r.ops(d.peerOps+int64(run.acc.Queried), d.failed+int64(run.acc.Queried-run.acc.Answered))
	rs := d.rounds.summarize()
	ws := secondly(d.busy, []*latencies{&d.rounds}, []*latencies{&d.rounds})
	r.logf("window: %.2fs in rounds, %d fleet rounds, %d peer rounds, %d failed", d.busy.Seconds(), d.fleet, d.peerOps, d.failed)
	r.logf("exchanges_per_s %.0f 1/s over the window (n=%d), median second %.0f", float64(d.peerOps-d.failed)/d.busy.Seconds(), d.peerOps-d.failed, ws.opsPerS)
	r.logf("round (Peer.GossipRound): %s; median second p50=%.1fus p90=%.1fus p99=%.1fus", rs.describe(), ws.p50, ws.p90, ws.p99)
	r.logf("coordinate digest after %d rounds: %s (after %d: %s, same-seed witness %s)", gossipRounds, run.digest, gossipCheckRounds, run.checkDigest, witness)
	r.logf("accuracy after %d rounds: median %.4f p90 %.4f, answered %d/%d; peak RSS then %.1f MB", gossipRounds, run.acc.Median, run.acc.P90, run.acc.Answered, run.acc.Queried, rss)

	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["ops_per_s"] = ws.opsPerS
	r.e2e["op_p50_us"] = ws.p50
	r.e2e["op_p90_us"] = ws.p90
	r.e2e["rss_peak_mb"] = rss
	return nil
}

// traceGossip is the traced variant: half the window on a plain fleet,
// half on a fleet with a registry and per-round spans, then outside
// probes of the layers a round crosses.
func traceGossip(ctx context.Context, cfg runConfig, r *report) error {
	half := cfg.window() / 2
	g, err := newFleet(ctx, cfg.seed, nil)
	if err != nil {
		return err
	}
	u0 := readUsage()
	plain, err := driveFleet(ctx, g, half, nil)
	u1 := readUsage()
	g.Close()
	if err != nil {
		return err
	}
	settle()
	pd := plain.d
	runtimeCosts(u0, u1, pd.peerOps, r.layers)
	plainRate := float64(pd.peerOps) / pd.busy.Seconds()

	reg := telemetry.NewRegistry()
	if g, err = newFleet(ctx, cfg.seed, reg); err != nil {
		return err
	}
	defer g.Close()
	rec := NewRecorder(time.Now(), 50_000)
	churn0 := fleetChurn(g)
	e0 := reg.Export()
	run, err := driveFleet(ctx, g, half, rec)
	if err != nil {
		return err
	}
	e1 := reg.Export()
	d := run.d
	if run.digest != plain.digest {
		r.wrong(fmt.Errorf("same-seed fleets diverged: digest %s vs %s", run.digest, plain.digest))
	}
	r.ops(pd.peerOps+d.peerOps+int64(run.acc.Queried), pd.failed+d.failed+int64(run.acc.Queried-run.acc.Answered))
	rs := d.rounds.summarize()
	r.layers["solve.median_rel_err"], r.layers["solve.p90_rel_err"] = run.acc.Median, run.acc.P90
	r.layers["peer.round_p50_us"] = rs.p(50)
	r.layers["peer.round_p99_us"] = rs.p(99)
	r.layers["peer.fail_frac"] = float64(d.failed) / float64(d.peerOps)
	r.layers["peer.neighbor_churn"] = float64(fleetChurn(g) - churn0)
	r.layers["rendezvous.announces_per_round"] = counterDelta(e0, e1, "ides_rendezvous_announces_total") / float64(d.fleet)
	r.layers["trace.overhead_frac"] = 1 - float64(d.peerOps)/d.busy.Seconds()/plainRate
	finishTrace(cfg, r, []*Recorder{rec})

	callP50, err := probeGossip(ctx, g, cfg.seed, r.layers)
	if err != nil {
		return err
	}
	// What a round is made of, each part timed from outside: the ping,
	// the request encode, the exchange call (dial, the partner's decode,
	// step and reply encode, and the transfer), the reply decode and the
	// local SGD step. The residual is the share of the median round they
	// leave unexplained; medians, because rare rounds that pay for a
	// garbage collection inflate every mean here.
	parts := r.layers["simnet.ping_us"] + callP50 +
		(r.layers["wire.encode_ns"]+r.layers["wire.decode_ns"]+r.layers["solve.peer_step_ns"])/1e3
	if m := rs.p(50); m > 0 {
		r.layers["trace.residual_frac"] = 1 - parts/m
	}
	r.logf("untraced %.0f rounds/s, traced %.0f rounds/s", plainRate, float64(d.peerOps)/d.busy.Seconds())
	r.logf("server-side reads and writes per exchange are not measured: the fleet's listeners are internal to the harness")
	return nil
}

func fleetChurn(g *harness.GossipCluster) uint64 {
	var n uint64
	for i := 0; i < g.NumPeers(); i++ {
		n += g.Peer(i).Stats().Churn
	}
	return n
}

// probeGossip times, from outside the peers, the pieces one exchange is
// made of: a simnet ping and dial+close, a real GossipExchange sent from
// peer 0's fabric host to other peers through a counting dial-per-call
// pool (the harness's peer pool configuration), the encode and decode of
// those messages, and solve.PeerStep on the fleet's own coordinates. It
// fills the matching per-layer metrics into out and returns the median
// exchange call time in microseconds.
func probeGossip(ctx context.Context, g *harness.GossipCluster, seed int64, out map[string]float64) (float64, error) {
	names := g.PeerNames()
	self := names[0]
	host, err := g.Net.Host(self)
	if err != nil {
		return 0, fmt.Errorf("probe host: %w", err)
	}
	rng := rand.New(rand.NewSource(seed + 31))
	targets := make([]string, gossipProbes)
	for i := range targets {
		targets[i] = names[1+rng.Intn(len(names)-1)]
	}

	start := time.Now()
	rtts := make([]float64, len(targets))
	for i, t := range targets {
		d, err := host.PingInstant(t, 1)
		if err != nil {
			return 0, fmt.Errorf("probe ping: %w", err)
		}
		rtts[i] = float64(d) / float64(time.Millisecond)
	}
	out["simnet.ping_us"] = float64(time.Since(start)) / 1e3 / float64(len(targets))

	start = time.Now()
	for _, t := range targets {
		conn, err := host.DialContext(ctx, "simnet", t)
		if err != nil {
			return 0, fmt.Errorf("probe dial: %w", err)
		}
		conn.Close()
	}
	out["simnet.dial_us"] = float64(time.Since(start)) / 1e3 / float64(len(targets))

	counts := &ConnCounts{}
	pool, err := transport.NewPool(transport.PoolConfig{
		Dialer:         &countingDialer{D: host, C: counts},
		MaxIdlePerHost: -1,
		MuxConns:       -1,
	})
	if err != nil {
		return 0, fmt.Errorf("probe pool: %w", err)
	}
	defer pool.Close()
	// The request carries peer 0's rows and, like a peer's own, a
	// sample of three neighbours' rows.
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	x, y := g.Peer(0).Coordinates()
	nb := g.Peer(0).Neighbors()
	var sample []wire.LandmarkVec
	for _, addr := range nb[:min(3, len(nb))] {
		o, in := g.Peer(index[addr]).Coordinates()
		sample = append(sample, wire.LandmarkVec{Addr: addr, Out: o, In: in})
	}
	var samples wireSamples
	var calls latencies
	var buf, scratch []byte
	for i, t := range targets {
		req := wire.GossipExchange{From: self, Out: x, In: y, RTTMillis: rtts[i], Peers: sample}
		buf = req.Encode(buf[:0])
		t0 := time.Now()
		rt, rp, sc, err := pool.CallInto(ctx, t, wire.TypeGossipExchange, buf, scratch)
		calls.add(time.Since(t0))
		scratch = sc
		if err != nil || rt != wire.TypeGossipReply {
			return 0, fmt.Errorf("probe exchange with %s: %v %v", t, rt, err)
		}
		samples.add(wire.TypeGossipExchange, buf, rt, rp)
	}
	if err := wireCosts([]*wireSamples{&samples}, out); err != nil {
		return 0, err
	}
	n := float64(len(targets))
	cs := counts.snapshot()
	cl := calls.summarize()
	out["wire.req_bytes"] = float64(cs.BytesWritten) / n
	out["wire.reply_bytes"] = float64(cs.BytesRead) / n
	out["transport.client_writes_per_op"] = float64(cs.Writes) / n
	out["transport.dials_per_op"] = float64(pool.Stats().Dials) / n
	out["transport.call_p50_us"] = cl.p(50)
	out["transport.call_p99_us"] = cl.p(99)

	opts, err := solve.SGDOptions{}.Normalize()
	if err != nil {
		return 0, fmt.Errorf("sgd options: %w", err)
	}
	// PeerStep on copies of random coordinate pairs, each pair stepped
	// against its ground-truth RTT; the copies keep the fleet untouched.
	const steps = 20000
	coords := g.Coordinates()
	pairs := make([][4][]float64, steps)
	truth := make([]float64, steps)
	for s := range pairs {
		a, b := rng.Intn(len(coords)), rng.Intn(len(coords))
		ca, cb := append([]float64(nil), coords[a]...), append([]float64(nil), coords[b]...)
		pairs[s] = [4][]float64{ca[:gossipDim], ca[gossipDim:], cb[:gossipDim], cb[gossipDim:]}
		if truth[s], err = g.Net.GroundTruthRTT(names[a], names[b]); err != nil {
			return 0, fmt.Errorf("probe truth: %w", err)
		}
	}
	start = time.Now()
	for s, p := range pairs {
		solve.PeerStep(p[0], p[1], p[2], p[3], truth[s], opts, true)
	}
	out["solve.peer_step_ns"] = float64(time.Since(start)) / steps
	return cl.p(50), nil
}
