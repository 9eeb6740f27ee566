package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// churnResult is the JSON shape written to BENCH_churn.json, one record
// per run so successive runs seed a perf trajectory.
type churnResult struct {
	Workload    string  `json:"workload"`
	Hosts       int     `json:"hosts"`
	Landmarks   int     `json:"landmarks"`
	Dim         int     `json:"dim"`
	DurationSec float64 `json:"duration_sec"`

	QueryBatch stats.OpSummary `json:"query_batch"`
	QueryKNN   stats.OpSummary `json:"query_knn"`

	RefitsObserved int     `json:"refits_observed"`
	Recoveries     int     `json:"recoveries"`
	RecoveryP50Ms  float64 `json:"recovery_p50_ms"`
	RecoveryMaxMs  float64 `json:"recovery_max_ms"`

	// ServerMetrics is the final scrape of the run's telemetry registry,
	// keyed by exposition name.
	ServerMetrics map[string]float64 `json:"server_metrics"`
}

// churnHost is one synthetic ordinary host: a point in the same latency
// space as the landmarks, re-solved against each model generation.
type churnHost struct {
	addr string
	dist []float64 // RTT to each landmark, milliseconds
	vec  core.Vectors
}

// runChurn is the serving-under-refit workload: a real loopback TCP
// server takes sustained QueryBatch and QueryKNN load while perturbed
// landmark reports force periodic background refits. Hosts behave like
// clients: they register with the epoch they solved against, and when a
// response's epoch stamp moves they re-solve against the fresh model
// and re-register (the recovery the epoch protocol prescribes). The
// interesting numbers are the query latency quantiles — on the old
// fit-in-handler path every refit stalled the request pipeline for a
// full factorization; with the background lifecycle p99 should sit near
// p50 regardless of refit frequency.
func runChurn(scale experiments.Scale, seed int64) error {
	numHosts, numLM := 2_000, 20
	duration := 3 * time.Second
	if scale == experiments.Full {
		numHosts = 20_000
		duration = 10 * time.Second
	}
	const (
		dim           = 8
		batchSize     = 256
		knnK          = 16
		refitInterval = 200 * time.Millisecond
		reportEvery   = 50 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))

	// Landmarks and hosts are points on a plane; RTT = scaled Euclidean
	// distance plus a floor, a low-rank-friendly geometry like the
	// paper's datasets.
	type pt struct{ x, y float64 }
	lmPts := make([]pt, numLM)
	lmNames := make([]string, numLM)
	for i := range lmPts {
		lmPts[i] = pt{rng.Float64() * 100, rng.Float64() * 100}
		lmNames[i] = fmt.Sprintf("lm-%02d", i)
	}
	rtt := func(a, b pt) float64 {
		return 2 + math.Hypot(a.x-b.x, a.y-b.y)
	}
	hosts := make([]*churnHost, numHosts)
	for i := range hosts {
		p := pt{rng.Float64() * 100, rng.Float64() * 100}
		d := make([]float64, numLM)
		for j, lp := range lmPts {
			d[j] = rtt(p, lp)
		}
		hosts[i] = &churnHost{addr: fmt.Sprintf("host-%06d", i), dist: d}
	}

	mreg := newBenchRegistry()
	srv, err := server.New(server.Config{
		Landmarks:        lmNames,
		Dim:              dim,
		Seed:             seed,
		RefitMinInterval: refitInterval,
		RefitThreshold:   1,
		Metrics:          mreg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, ln) }() //nolint:errcheck
	defer func() { cancel(); <-done }()
	addr := ln.Addr().String()
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	// Reports ride the pool instead of dialing per round: the reporter
	// goroutine fires every 50ms for the whole run, exactly the small-
	// message cadence the pool exists for.
	pool, err := transport.NewPool(transport.PoolConfig{
		Dialer:         dialer,
		MaxIdlePerHost: *poolFlags.MaxIdle,
		IdleTimeout:    *poolFlags.IdleTimeout,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	pool.RegisterMetrics(mreg)

	report := func(from int, jitter float64) error {
		rep := &wire.ReportRTT{From: lmNames[from]}
		for j := range lmNames {
			if j == from {
				continue
			}
			ms := rtt(lmPts[from], lmPts[j]) * (1 + jitter*(rng.Float64()-0.5))
			rep.Entries = append(rep.Entries, wire.RTTEntry{To: lmNames[j], RTTMillis: ms})
		}
		typ, _, err := pool.Call(ctx, addr, wire.TypeReportRTT, rep.Encode(nil))
		if err != nil {
			return err
		}
		if typ != wire.TypeAck {
			return fmt.Errorf("report answered %v", typ)
		}
		return nil
	}
	for i := range lmNames {
		if err := report(i, 0); err != nil {
			return err
		}
	}

	// One long-lived connection for the load loop, like a real client.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	fetchModel := func() (*wire.Model, *mat.Dense, *mat.Dense, error) {
		typ, payload, err := transport.Roundtrip(ctx, conn, wire.TypeGetModel, nil)
		if err != nil || typ != wire.TypeModel {
			return nil, nil, nil, fmt.Errorf("GetModel: %v %v", typ, err)
		}
		m, err := wire.DecodeModel(payload)
		if err != nil {
			return nil, nil, nil, err
		}
		refOut := mat.NewDense(numLM, dim)
		refIn := mat.NewDense(numLM, dim)
		for i := range m.Landmarks {
			refOut.SetRow(i, m.Landmarks[i].Out)
			refIn.SetRow(i, m.Landmarks[i].In)
		}
		return m, refOut, refIn, nil
	}

	// registerAll re-solves every host against the current model and
	// re-registers — the mass rejoin a refit triggers in a real
	// deployment. A refit can land mid-rejoin (the reporter never
	// pauses), in which case the server starts refusing the batch with
	// CodeStaleEpoch; re-fetch the model and start over, exactly like
	// the client library does. Returns the epoch everything is finally
	// registered at.
	var buf []byte
	registerAll := func() (uint64, error) {
		const maxRestarts = 10
		var lastErr error
	restart:
		for r := 0; r < maxRestarts; r++ {
			m, refOut, refIn, err := fetchModel()
			if err != nil {
				return 0, err
			}
			for _, h := range hosts {
				v, err := core.SolveVectors(refOut, refIn, h.dist, h.dist)
				if err != nil {
					return 0, err
				}
				h.vec = v
				reg := &wire.RegisterHost{Addr: h.addr, Out: v.Out, In: v.In, Epoch: m.Epoch}
				buf = reg.Encode(buf[:0])
				typ, payload, err := transport.Roundtrip(ctx, conn, wire.TypeRegisterHost, buf)
				if err != nil {
					var werr *wire.Error
					if errors.As(err, &werr) && werr.Code == wire.CodeStaleEpoch {
						lastErr = err
						continue restart
					}
					return 0, err
				}
				if typ != wire.TypeAck {
					return 0, fmt.Errorf("register %s answered %v: %s", h.addr, typ, payload)
				}
			}
			return m.Epoch, nil
		}
		return 0, fmt.Errorf("model epoch kept moving across %d rejoin attempts: %w", maxRestarts, lastErr)
	}
	epoch, err := registerAll()
	if err != nil {
		return err
	}

	// Reporter goroutine: perturbed measurements at a steady cadence keep
	// the refitter busy for the whole run.
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		tick := time.NewTicker(reportEvery)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if err := report(i%numLM, 0.05); err != nil {
					return
				}
				i++
			}
		}
	}()

	var (
		batchLat, knnLat []time.Duration
		recoveryLat      []time.Duration
		refits           int
	)
	deadline := time.Now().Add(duration)
	for i := 0; time.Now().Before(deadline); i++ {
		src := hosts[rng.Intn(numHosts)]
		targets := make([]string, batchSize)
		for j := range targets {
			targets[j] = hosts[rng.Intn(numHosts)].addr
		}

		t0 := time.Now()
		req := &wire.QueryBatch{From: src.addr, Targets: targets}
		typ, payload, err := transport.Roundtrip(ctx, conn, wire.TypeQueryBatch, req.Encode(buf[:0]))
		if err != nil || typ != wire.TypeDistances {
			return fmt.Errorf("QueryBatch: %v %v", typ, err)
		}
		batchLat = append(batchLat, time.Since(t0))
		resp, err := wire.DecodeDistances(payload)
		if err != nil {
			return err
		}
		if resp.Epoch != epoch || !resp.SrcFound {
			// The model moved: every host's vectors belong to a dead
			// generation. Recover the whole population like clients would.
			r0 := time.Now()
			if epoch, err = registerAll(); err != nil {
				return err
			}
			recoveryLat = append(recoveryLat, time.Since(r0))
			refits++
		}

		t0 = time.Now()
		knn := &wire.QueryKNN{From: src.addr, K: knnK}
		typ, payload, err = transport.Roundtrip(ctx, conn, wire.TypeQueryKNN, knn.Encode(buf[:0]))
		if err != nil || typ != wire.TypeNeighbors {
			return fmt.Errorf("QueryKNN: %v %v", typ, err)
		}
		knnLat = append(knnLat, time.Since(t0))
		if _, err := wire.DecodeNeighbors(payload); err != nil {
			return err
		}
	}
	cancel()
	<-reporterDone

	result := churnResult{
		Workload:       "churn",
		Hosts:          numHosts,
		Landmarks:      numLM,
		Dim:            dim,
		DurationSec:    duration.Seconds(),
		QueryBatch:     stats.SummarizeDurations(batchLat, duration),
		QueryKNN:       stats.SummarizeDurations(knnLat, duration),
		RefitsObserved: refits,
		Recoveries:     len(recoveryLat),
	}
	if len(recoveryLat) > 0 {
		sort.Slice(recoveryLat, func(i, j int) bool { return recoveryLat[i] < recoveryLat[j] })
		result.RecoveryP50Ms = float64(recoveryLat[len(recoveryLat)/2]) / float64(time.Millisecond)
		result.RecoveryMaxMs = float64(recoveryLat[len(recoveryLat)-1]) / float64(time.Millisecond)
	}
	result.ServerMetrics = mreg.Export()

	fmt.Printf("\n== Churn workload: %d hosts, %d landmarks, refit every >=%v under load ==\n",
		numHosts, numLM, refitInterval)
	fmt.Printf("query batch (%d targets): %d ops, p50=%.0fµs p99=%.0fµs max=%.0fµs\n",
		batchSize, result.QueryBatch.Ops, result.QueryBatch.P50Us, result.QueryBatch.P99Us, result.QueryBatch.MaxUs)
	fmt.Printf("query knn   (k=%d):       %d ops, p50=%.0fµs p99=%.0fµs max=%.0fµs\n",
		knnK, result.QueryKNN.Ops, result.QueryKNN.P50Us, result.QueryKNN.P99Us, result.QueryKNN.MaxUs)
	fmt.Printf("refits observed: %d, full-population recoveries: %d (p50=%.1fms max=%.1fms)\n",
		result.RefitsObserved, result.Recoveries, result.RecoveryP50Ms, result.RecoveryMaxMs)

	f, err := os.Create("BENCH_churn.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(result); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("(wrote BENCH_churn.json)")
	return nil
}
