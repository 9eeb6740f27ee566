package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/transport"
)

// read-mix scale: one leader fitted from 16 landmarks serving 100,000
// registered hosts of dimension 8 (~13 MB of vectors, more than a
// typical L2) to 2 closed-loop callers.
const (
	readMixLandmarks = 16
	readMixHosts     = 100_000
	readMixDim       = 8
	readMixCallers   = 2
	readMixBatch     = 64
	readMixK         = 8
	// readMixStubHosts sets the topology's hosts per stub domain.
	readMixStubHosts = 100
	// accuracyPairs is how many fixed host pairs score the served
	// estimates against ground truth after the timed window.
	accuracyPairs = 4000
	// readMixSetups is how many times a run builds its tier; setup_s is
	// the median.
	readMixSetups = 3
)

// readMixTier is a leader with its registered hosts and a client pool.
type readMixTier struct {
	leader *runningServer
	pool   *transport.Pool
	hosts  *hostSet
}

func (t *readMixTier) close() {
	t.pool.Close()
	t.leader.close()
}

// setupReadMix builds, fits, registers and warms one read-mix tier.
func setupReadMix(ctx context.Context, ls *landscape, truth *mat.Dense, seed int64, tk *traceKit) (*readMixTier, error) {
	leader, err := startServer(server.Config{Landmarks: ls.lmNames, Dim: readMixDim, Seed: seed}, tk)
	if err != nil {
		return nil, err
	}
	pool, err := newPool(tk)
	if err != nil {
		leader.close()
		return nil, err
	}
	t := &readMixTier{leader: leader, pool: pool}
	if err := t.fill(ctx, ls, truth, seed); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *readMixTier) fill(ctx context.Context, ls *landscape, truth *mat.Dense, seed int64) error {
	model, err := seedModel(ctx, t.pool, t.leader, ls, truth)
	if err != nil {
		return err
	}
	if t.hosts, err = registerHosts(ctx, t.pool, t.leader.addr, ls, model, readMixCallers); err != nil {
		return err
	}
	if n := t.leader.srv.NumHosts(); n != readMixHosts {
		return fmt.Errorf("leader holds %d hosts, want %d", n, readMixHosts)
	}
	// The k-NN index is built lazily by the first QueryKNN that finds it
	// missing; warm-up waits until it covers every host at the served
	// epoch, then runs a short mix so caches and pools are warm.
	c := newCaller(t.pool, t.hosts, seed^0x5eed, nil)
	err = waitFor(30*time.Second, "the k-NN index", func() bool {
		c.queryKNN(ctx, t.leader.addr, 0, readMixK)
		info, ok := t.leader.srv.Engine().Directory().KNNIndex()
		return ok && info.Epoch == t.leader.srv.Epoch() && info.Points == readMixHosts
	})
	if err != nil {
		return err
	}
	for i := 0; i < 2000; i++ {
		c.mixOp(ctx, t.leader.addr)
	}
	if c.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed", c.failed, c.attempted)
	}
	return nil
}

// mixOp sends one call of the read mix: 90% QueryDist, 8% QueryBatch of
// 64 targets, 2% QueryKNN with k=8, between uniformly random hosts.
func (c *caller) mixOp(ctx context.Context, addr string) {
	n := c.hosts.len()
	r, src := c.rng.Intn(100), c.rng.Intn(n)
	switch {
	case r < 90:
		c.queryDist(ctx, addr, src, c.rng.Intn(n))
	case r < 98:
		c.queryBatch(ctx, addr, src, readMixBatch)
	default:
		c.queryKNN(ctx, addr, src, readMixK)
	}
}

// readMixWindow drives the timed read mix against t and returns the
// callers and the window's wall time.
func readMixWindow(ctx context.Context, t *readMixTier, window time.Duration, seed int64, traced bool) ([]*caller, time.Duration) {
	callers := make([]*caller, readMixCallers)
	for i := range callers {
		var rec *Recorder
		if traced {
			rec = NewRecorder(time.Now(), 50_000)
		}
		callers[i] = newCaller(t.pool, t.hosts, seed+int64(1000*(i+1)), rec)
	}
	el := runCallers(window, callers, func(c *caller, deadline time.Time) {
		for time.Now().Before(deadline) {
			c.mixOp(ctx, t.leader.addr)
		}
	})
	return callers, el
}

// checkKNNSamples brute-forces every kept k-NN answer.
func checkKNNSamples(r *report, hosts *hostSet, callers []*caller) int {
	n := 0
	for _, c := range callers {
		for _, s := range c.knnSamples {
			n++
			if err := hosts.checkKNNExact(s.millis, s.src); err != nil {
				r.wrong(err)
			}
		}
	}
	return n
}

// scoreAccuracy queries a fixed seeded set of host pairs and scores the
// served estimates against ground-truth RTTs with the paper's relative
// error (Eq. 10). Every answer is also checked against the reference.
func scoreAccuracy(ctx context.Context, r *report, pool *transport.Pool, addr string, ls *landscape, hosts *hostSet, seed int64) (median, p90 float64) {
	rng := rand.New(rand.NewSource(seed + 77))
	c := newCaller(pool, hosts, seed+78, nil)
	errs := make([]float64, 0, accuracyPairs)
	for k := 0; k < accuracyPairs; k++ {
		i, j := rng.Intn(hosts.len()), rng.Intn(hosts.len())
		if i == j {
			continue
		}
		before := len(c.dist.us)
		c.queryDist(ctx, addr, i, j)
		if len(c.dist.us) > before {
			errs = append(errs, stats.RelativeError(ls.topo.RTT(ls.hostTopo(i), ls.hostTopo(j)), hosts.est(i, j)))
		}
	}
	tally(r, []*caller{c})
	return stats.Median(errs), stats.Percentile(errs, 90)
}

func runReadMix(cfg runConfig, r *report) error {
	ctx := context.Background()
	ls, err := newLandscape(cfg.seed, readMixLandmarks, readMixHosts, readMixStubHosts)
	if err != nil {
		return err
	}
	truth := ls.lmTruth()
	if cfg.trace {
		return traceReadMix(ctx, cfg, r, ls, truth)
	}

	t, setupTimes, err := repeatSetup(readMixSetups, func() (*readMixTier, error) {
		return setupReadMix(ctx, ls, truth, cfg.seed, nil)
	}, (*readMixTier).close)
	if err != nil {
		return err
	}
	defer t.close()
	rss := peakRSSMB()
	r.logf("setup: %v s (median of %d), peak RSS %.1f MB", setupTimes, readMixSetups, rss)

	callers, el := readMixWindow(ctx, t, cfg.window(), cfg.seed, false)
	tally(r, callers)
	var dist, batch, knn latencies
	for _, c := range callers {
		dist.merge(&c.dist)
		batch.merge(&c.batch)
		knn.merge(&c.knn)
	}
	checked := checkKNNSamples(r, t.hosts, callers)
	ds, bs, ks := dist.summarize(), batch.summarize(), knn.summarize()
	ws := secondly(el, []*latencies{&dist, &batch, &knn}, []*latencies{&dist})
	r.logf("window: %.2fs, %d calls, %d failed", el.Seconds(), r.attempted, r.failed)
	r.logf("reads_per_s %.0f 1/s over the window (n=%d), median second %.0f", float64(ds.N+bs.N+ks.N)/el.Seconds(), ds.N+bs.N+ks.N, ws.opsPerS)
	r.logf("point (QueryDist):   %s; median second p50=%.1fus p90=%.1fus p99=%.1fus", ds.describe(), ws.p50, ws.p90, ws.p99)
	r.logf("batch (QueryBatch):  %s", bs.describe())
	r.logf("knn (QueryKNN):      %s", ks.describe())
	r.logf("k-NN answers brute-force checked: %d", checked)
	med, p90 := scoreAccuracy(ctx, r, t.pool, t.leader.addr, ls, t.hosts, cfg.seed)
	r.logf("accuracy over %d fixed pairs: median %.4f p90 %.4f", accuracyPairs, med, p90)

	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["ops_per_s"] = ws.opsPerS
	r.e2e["op_p50_us"] = ws.p50
	r.e2e["op_p90_us"] = ws.p90
	r.e2e["rss_peak_mb"] = rss
	return nil
}

// traceReadMix is the traced variant: half the window untraced on a
// plain tier (throughput and runtime costs), half traced on a tier with
// a registry and counting connections (per-layer metrics).
func traceReadMix(ctx context.Context, cfg runConfig, r *report, ls *landscape, truth *mat.Dense) error {
	half := cfg.window() / 2
	t, err := setupReadMix(ctx, ls, truth, cfg.seed, nil)
	if err != nil {
		return err
	}
	u0 := readUsage()
	callers, el := readMixWindow(ctx, t, half, cfg.seed, false)
	u1 := readUsage()
	tally(r, callers)
	plainOps := okOps(callers)
	runtimeCosts(u0, u1, plainOps, r.layers)
	plainRate := float64(plainOps) / el.Seconds()
	t.close()
	settle()

	tk := newTraceKit()
	if t, err = setupReadMix(ctx, ls, truth, cfg.seed, tk); err != nil {
		return err
	}
	defer t.close()
	a := readTier(t.pool, tk, t.leader)
	callers, el = readMixWindow(ctx, t, half, cfg.seed, true)
	b := readTier(t.pool, tk, t.leader)
	tally(r, callers)
	checkKNNSamples(r, t.hosts, callers)
	tracedOps := okOps(callers)
	recs, calls, samples := tracedParts(callers)
	aggs := finishTrace(cfg, r, recs)
	tierLayers(a, b, tracedOps, aggs, calls, r.layers)
	if err := wireCosts(samples, r.layers); err != nil {
		return err
	}
	queryLayers(t.leader.srv.Engine(), t.hosts, cfg.seed, r.layers)
	r.layers["solve.median_rel_err"], r.layers["solve.p90_rel_err"] = scoreAccuracy(ctx, r, t.pool, t.leader.addr, ls, t.hosts, cfg.seed)
	r.layers["trace.overhead_frac"] = 1 - float64(tracedOps)/el.Seconds()/plainRate
	r.logf("untraced %.0f ops/s, traced %.0f ops/s", plainRate, float64(tracedOps)/el.Seconds())
	return nil
}
