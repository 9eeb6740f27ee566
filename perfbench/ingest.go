package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// ingest scale: an SGD leader over 32 landmarks and one follower, 10,000
// registered hosts of dimension 8 (a directory that fits in L2), one
// reporting caller and one reading caller.
const (
	ingestLandmarks = 32
	ingestHosts     = 10_000
	ingestDim       = 8
	ingestStubHosts = 20
	ingestCallers   = 2
	// ingestJitter is the relative spread of reported RTTs around the
	// truth: ±5%.
	ingestJitter = 0.05
	// freshEvery samples every this-many-th report for the
	// report→follower-serves-it latency; accuracyEvery samples the
	// follower's served landmark model every this-many reports.
	freshEvery    = 64
	accuracyEvery = 128
	// ingestSetups is how many times a run builds its tier; setup_s is
	// the median.
	ingestSetups = 5
)

// ingestTier is a leader, its follower, the registered hosts and one
// pool reaching both servers.
type ingestTier struct {
	leader, follower *runningServer
	pool             *transport.Pool
	hosts            *hostSet
}

func (t *ingestTier) close() {
	t.pool.Close()
	t.follower.close()
	t.leader.close()
}

// setupIngest builds the leader and follower, fits the leader, registers
// the hosts, and waits until the follower has caught up with both the
// directory and the model revision.
func setupIngest(ctx context.Context, ls *landscape, truth *mat.Dense, seed int64, tk *traceKit) (*ingestTier, error) {
	// Drift-triggered corrective fits are off: ±5% jitter walks the SGD
	// factors past the default drift threshold within seconds, and a fit
	// would bump the epoch and evict every host. Full factorization is
	// set-up work here; this workload measures incremental revisions.
	leader, err := startServer(server.Config{Landmarks: ls.lmNames, Dim: ingestDim, Seed: seed,
		Solver: solve.SGD, DriftEpochThreshold: -1}, tk)
	if err != nil {
		return nil, err
	}
	follower, err := startServer(server.Config{Role: server.RoleFollower, LeaderAddr: leader.addr, FollowerID: "bench-follower", Dim: ingestDim}, tk)
	if err != nil {
		leader.close()
		return nil, err
	}
	pool, err := newPool(tk)
	if err != nil {
		follower.close()
		leader.close()
		return nil, err
	}
	t := &ingestTier{leader: leader, follower: follower, pool: pool}
	if err := t.fill(ctx, ls, truth, seed); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *ingestTier) fill(ctx context.Context, ls *landscape, truth *mat.Dense, seed int64) error {
	model, err := seedModel(ctx, t.pool, t.leader, ls, truth)
	if err != nil {
		return err
	}
	if t.hosts, err = registerHosts(ctx, t.pool, t.leader.addr, ls, model, ingestCallers); err != nil {
		return err
	}
	if err := t.synced(); err != nil {
		return err
	}
	// Warm-up: a round of reports per landmark and a burst of follower
	// reads, then wait for the follower to apply the last revision.
	rep := newReporter(t, ls, truth, seed^0x5eed)
	for i := 0; i < 2*ls.numLM(); i++ {
		rep.report(ctx, ls)
	}
	c := newCaller(t.pool, t.hosts, seed^0xbeef, nil)
	for i := 0; i < 2000; i++ {
		c.queryDist(ctx, t.follower.addr, c.rng.Intn(ingestHosts), c.rng.Intn(ingestHosts))
	}
	if rep.failed+c.failed > 0 {
		return fmt.Errorf("warm-up: %d reports and %d reads failed", rep.failed, c.failed)
	}
	return t.synced()
}

// synced waits until the leader's pipeline is drained and the follower
// serves the leader's epoch and revision with every host.
func (t *ingestTier) synced() error {
	if err := t.leader.srv.Quiesce(context.Background()); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	want := t.leader.srv.LifecycleStats()
	return waitFor(30*time.Second, "the follower to catch up", func() bool {
		got := t.follower.srv.LifecycleStats()
		return got.Epoch == want.Epoch && got.Rev == want.Rev && t.follower.srv.NumHosts() == ingestHosts
	})
}

// reporter is the writing caller: it sends full measured rows from the
// landmarks in round-robin order, each RTT the truth jittered by ±5%.
type reporter struct {
	*caller
	tier  *ingestTier
	truth *mat.Dense
	n     int
	acks  latencies // ReportRTT round trips
	fresh latencies
	errs  []float64 // relative errors of the follower's served model
	lmVec [][]float64
}

func newReporter(t *ingestTier, ls *landscape, truth *mat.Dense, seed int64) *reporter {
	return &reporter{caller: newCaller(t.pool, t.hosts, seed, nil), tier: t, truth: truth}
}

func (r *reporter) jitter() float64 { return 1 + ingestJitter*(2*r.rng.Float64()-1) }

// report sends the next landmark's row to the leader and waits for the
// Ack.
func (r *reporter) report(ctx context.Context, ls *landscape) {
	from := r.n % ls.numLM()
	r.n++
	t0 := time.Now()
	root := r.rec.Begin("op.report", -1)
	h := r.rec.Begin("wire.encode", root)
	rep := measuredRow(ls, r.truth, from, r.jitter)
	r.buf = rep.Encode(r.buf[:0])
	r.rec.End(h)
	rt, _, err := r.exchange(ctx, root, r.tier.leader.addr, wire.TypeReportRTT)
	r.rec.End(root)
	r.outcome(&r.acks, time.Since(t0), replyErr(err, rt, wire.TypeAck), nil)
}

// freshReport sends one sampled report from a drained pipeline and
// times it until the follower serves the revision that folds it in:
// with the pipeline idle and this caller the only writer, that is the
// leader's next revision.
func (r *reporter) freshReport(ctx context.Context, ls *landscape) {
	if err := r.tier.leader.srv.Quiesce(ctx); err != nil {
		r.outcome(&r.fresh, 0, err, nil)
		return
	}
	base := r.tier.leader.srv.LifecycleStats()
	t0 := time.Now()
	failedBefore := r.failed
	r.report(ctx, ls)
	if r.failed > failedBefore {
		return
	}
	deadline := t0.Add(5 * time.Second)
	for {
		got := r.tier.follower.srv.LifecycleStats()
		if got.Epoch == base.Epoch && got.Rev > base.Rev {
			r.fresh.add(time.Since(t0))
			return
		}
		if got.Epoch != base.Epoch || time.Now().After(deadline) {
			r.wrong = append(r.wrong, fmt.Errorf("report at epoch %d rev %d: follower at epoch %d rev %d after %v",
				base.Epoch, base.Rev, got.Epoch, got.Rev, time.Since(t0)))
			return
		}
		runtime.Gosched()
	}
}

// sampleModel scores the follower's served landmark model against the
// truth matrix over every ordered landmark pair.
func (r *reporter) sampleModel(ls *landscape) {
	eng := r.tier.follower.srv.Engine()
	m := ls.numLM()
	if r.lmVec == nil {
		r.lmVec = make([][]float64, 2*m)
	}
	for i, name := range ls.lmNames {
		v, ok := eng.Lookup(name)
		if !ok {
			r.wrong = append(r.wrong, fmt.Errorf("follower does not resolve landmark %s", name))
			return
		}
		r.lmVec[i], r.lmVec[m+i] = v.Out, v.In
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				r.errs = append(r.errs, stats.RelativeError(r.truth.At(i, j), dot(r.lmVec[i], r.lmVec[m+j])))
			}
		}
	}
}

// ingestWindow runs the reporter against the leader and one reader
// against the follower for the window.
func ingestWindow(ctx context.Context, t *ingestTier, ls *landscape, truth *mat.Dense, window time.Duration, seed int64, traced bool) (*reporter, *caller, time.Duration) {
	var recW, recR *Recorder
	if traced {
		recW, recR = NewRecorder(time.Now(), 25_000), NewRecorder(time.Now(), 25_000)
	}
	rep := newReporter(t, ls, truth, seed+1000)
	rep.rec = recW
	reader := newCaller(t.pool, t.hosts, seed+2000, recR)
	el := runCallers(window, []*caller{rep.caller, reader}, func(c *caller, deadline time.Time) {
		if c == reader {
			for time.Now().Before(deadline) {
				c.queryDist(ctx, t.follower.addr, c.rng.Intn(ingestHosts), c.rng.Intn(ingestHosts))
			}
			return
		}
		for k := 0; time.Now().Before(deadline); k++ {
			if k%freshEvery == 0 {
				rep.freshReport(ctx, ls)
			} else {
				rep.report(ctx, ls)
			}
			if k%accuracyEvery == 0 {
				rep.sampleModel(ls)
			}
		}
	})
	return rep, reader, el
}

// finalSync checks the follower ends on exactly the leader's revision.
func finalSync(r *report, t *ingestTier) {
	if err := t.leader.srv.Quiesce(context.Background()); err != nil {
		r.wrong(fmt.Errorf("final quiesce: %w", err))
		return
	}
	want := t.leader.srv.LifecycleStats()
	err := waitFor(10*time.Second, "the follower's final revision", func() bool {
		got := t.follower.srv.LifecycleStats()
		return got.Epoch == want.Epoch && got.Rev == want.Rev
	})
	if err != nil {
		got := t.follower.srv.LifecycleStats()
		r.wrong(fmt.Errorf("follower ends at epoch %d rev %d, leader at epoch %d rev %d", got.Epoch, got.Rev, want.Epoch, want.Rev))
	}
}

// checkNoFits fails the run when a full fit ran in the window: the
// workload is designed to be absorbed by incremental revisions alone.
func checkNoFits(r *report, before, after uint64) {
	if after != before {
		r.wrong(fmt.Errorf("%d full fits in the timed window, want 0", after-before))
	}
}

func runIngest(cfg runConfig, r *report) error {
	ctx := context.Background()
	ls, err := newLandscape(cfg.seed, ingestLandmarks, ingestHosts, ingestStubHosts)
	if err != nil {
		return err
	}
	truth := ls.lmTruth()
	if cfg.trace {
		return traceIngest(ctx, cfg, r, ls, truth)
	}

	t, setupTimes, err := repeatSetup(ingestSetups, func() (*ingestTier, error) {
		return setupIngest(ctx, ls, truth, cfg.seed, nil)
	}, (*ingestTier).close)
	if err != nil {
		return err
	}
	defer t.close()
	rss := peakRSSMB()
	r.logf("setup: %v s (median of %d), peak RSS %.1f MB", setupTimes, ingestSetups, rss)

	fits := t.leader.srv.LifecycleStats().Fits
	rep, reader, el := ingestWindow(ctx, t, ls, truth, cfg.window(), cfg.seed, false)
	checkNoFits(r, fits, t.leader.srv.LifecycleStats().Fits)
	tally(r, []*caller{rep.caller, reader})
	finalSync(r, t)

	reads, acks, fresh := reader.dist.summarize(), rep.acks.summarize(), rep.fresh.summarize()
	ws := secondly(el, []*latencies{&reader.dist, &rep.acks}, []*latencies{&reader.dist})
	r.logf("window: %.2fs, %d calls, %d failed", el.Seconds(), r.attempted, r.failed)
	r.logf("reads_per_s %.0f 1/s (n=%d), reports_per_s %.0f 1/s (n=%d), median second %.0f calls",
		float64(reads.N)/el.Seconds(), reads.N, float64(acks.N)/el.Seconds(), acks.N, ws.opsPerS)
	r.logf("point (QueryDist on follower): %s; median second p50=%.1fus p90=%.1fus p99=%.1fus", reads.describe(), ws.p50, ws.p90, ws.p99)
	r.logf("report (ReportRTT ack):        %s", acks.describe())
	r.logf("fresh (report→follower serves): %s", fresh.describe())
	med, p90 := stats.Median(rep.errs), stats.Percentile(rep.errs, 90)
	r.logf("follower model accuracy over %d landmark pairs sampled through the window: median %.4f p90 %.4f", len(rep.errs), med, p90)

	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["ops_per_s"] = ws.opsPerS
	r.e2e["op_p50_us"] = ws.p50
	r.e2e["op_p90_us"] = ws.p90
	r.e2e["rss_peak_mb"] = rss
	return nil
}

// traceIngest is the traced variant of ingest: half the window on a
// plain tier, half on a traced one with a sampler watching the leader's
// delta queue and the follower's lag.
func traceIngest(ctx context.Context, cfg runConfig, r *report, ls *landscape, truth *mat.Dense) error {
	half := cfg.window() / 2
	t, err := setupIngest(ctx, ls, truth, cfg.seed, nil)
	if err != nil {
		return err
	}
	u0 := readUsage()
	rep, reader, el := ingestWindow(ctx, t, ls, truth, half, cfg.seed, false)
	u1 := readUsage()
	tally(r, []*caller{rep.caller, reader})
	plainOps := okOps([]*caller{rep.caller, reader})
	runtimeCosts(u0, u1, plainOps, r.layers)
	plainRate := float64(plainOps) / el.Seconds()
	t.close()
	settle()

	tk := newTraceKit()
	if t, err = setupIngest(ctx, ls, truth, cfg.seed, tk); err != nil {
		return err
	}
	defer t.close()
	a := readTier(t.pool, tk, t.leader, t.follower)
	la, fa := t.leader.srv.LifecycleStats(), t.follower.srv.ReplicationStats()
	ra := t.leader.srv.ReplicationStats()
	stop := make(chan struct{})
	sampled := make(chan [2]float64)
	go func() { sampled <- sampleIngest(t, stop) }()
	rep, reader, el = ingestWindow(ctx, t, ls, truth, half, cfg.seed, true)
	close(stop)
	maxes := <-sampled
	b := readTier(t.pool, tk, t.leader, t.follower)
	lb, fb := t.leader.srv.LifecycleStats(), t.follower.srv.ReplicationStats()
	rb := t.leader.srv.ReplicationStats()
	callers := []*caller{rep.caller, reader}
	tally(r, callers)
	checkNoFits(r, la.Fits, lb.Fits)
	finalSync(r, t)
	tracedOps := okOps(callers)
	recs, calls, samples := tracedParts(callers)
	aggs := finishTrace(cfg, r, recs)
	tierLayers(a, b, tracedOps, aggs, calls, r.layers)
	if err := wireCosts(samples, r.layers); err != nil {
		return err
	}
	queryLayers(t.follower.srv.Engine(), t.hosts, cfg.seed, r.layers)

	revs := float64(lb.Revisions - la.Revisions)
	if n := b.exports[0]["ides_model_revision_seconds_count"] - a.exports[0]["ides_model_revision_seconds_count"]; n > 0 {
		r.layers["lifecycle.revision_us"] = (b.exports[0]["ides_model_revision_seconds_sum"] - a.exports[0]["ides_model_revision_seconds_sum"]) / n * 1e6
	}
	r.layers["lifecycle.revisions_per_s"] = revs / el.Seconds()
	if revs > 0 {
		r.layers["lifecycle.deltas_per_revision"] = float64(lb.Deltas-la.Deltas) / revs
		r.layers["repl.bytes_per_revision"] = float64(rb.BytesSent-ra.BytesSent) / revs
		r.layers["repl.frames_per_revision"] = float64(rb.FramesSent-ra.FramesSent) / revs
	}
	r.layers["lifecycle.fits"] = float64(lb.Fits - la.Fits)
	r.layers["lifecycle.queue_depth_max"] = maxes[0]
	r.layers["repl.lag_revs_max"] = maxes[1]
	r.layers["repl.reconnects"] = float64(fb.Reconnects - fa.Reconnects)
	r.layers["solve.median_rel_err"], r.layers["solve.p90_rel_err"] = stats.Median(rep.errs), stats.Percentile(rep.errs, 90)
	r.layers["trace.overhead_frac"] = 1 - float64(tracedOps)/el.Seconds()/plainRate
	r.logf("untraced %.0f ops/s, traced %.0f ops/s", plainRate, float64(tracedOps)/el.Seconds())
	return nil
}

// sampleIngest samples the leader's delta queue depth and the
// follower's revision lag every 2 ms until stop closes, returning both
// maxima.
func sampleIngest(t *ingestTier, stop <-chan struct{}) [2]float64 {
	var maxes [2]float64
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return maxes
		case <-tick.C:
		}
		depth := t.leader.export()["ides_model_delta_queue_depth"]
		lead, fol := t.leader.srv.LifecycleStats(), t.follower.srv.ReplicationStats()
		lag := float64(lead.Rev) - float64(fol.AppliedRev)
		maxes[0], maxes[1] = max(maxes[0], depth), max(maxes[1], lag)
	}
}
