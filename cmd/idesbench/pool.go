package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// poolResult is the JSON shape written to BENCH_pool.json: the same
// request stream measured dial-per-call and over the connection pool.
type poolResult struct {
	Workload string `json:"workload"`
	Hosts    int    `json:"hosts"`
	Dim      int    `json:"dim"`

	PointDial   stats.OpSummary `json:"point_query_dial"`
	PointPooled stats.OpSummary `json:"point_query_pooled"`
	// PointP50Speedup is dial p50 / pooled p50 — how much of the small-
	// request latency was handshake churn.
	PointP50Speedup float64 `json:"point_p50_speedup"`

	BatchDial       stats.OpSummary `json:"query_batch_dial"`
	BatchPooled     stats.OpSummary `json:"query_batch_pooled"`
	BatchP50Speedup float64         `json:"batch_p50_speedup"`

	PoolDials   int64 `json:"pool_dials"`
	PoolReuses  int64 `json:"pool_reuses"`
	PoolRetries int64 `json:"pool_retries"`

	// Sweep is the point-query concurrency sweep: 1/8/64 clients, each
	// run twice — lockstep framing (one pooled connection per client)
	// and multiplexed framing (the clients share a small fixed set of
	// mux connections).
	Sweep []sweepPoint `json:"concurrency_sweep"`
	// MuxSpeedup8/64 are mux-over-lockstep throughput ratios at those
	// client counts — the pipelining win the v2 transport exists for.
	MuxSpeedup8  float64 `json:"mux_speedup_8"`
	MuxSpeedup64 float64 `json:"mux_speedup_64"`

	// ServerMetrics is the final scrape of the run's telemetry registry
	// (server request/report counters, latency histogram sums/counts,
	// pool counters), keyed by exposition name.
	ServerMetrics map[string]float64 `json:"server_metrics"`
}

// sweepPoint is one cell of the concurrency sweep.
type sweepPoint struct {
	Clients int  `json:"clients"`
	Mux     bool `json:"mux"`
	stats.OpSummary
	MuxFlushes   int64 `json:"mux_flushes,omitempty"`
	MuxFrames    int64 `json:"mux_frames,omitempty"`
	MuxCoalesced int64 `json:"mux_coalesced,omitempty"`
}

// runPool is the transport workload: a real loopback TCP server loaded
// with registered hosts answers the same stream of point queries and
// QueryBatch calls twice — once dialing a fresh connection per call (the
// pre-pool client behavior) and once over a transport.Pool of persistent
// connections. The paper's architecture assumes hosts fire many small
// exchanges at the service; this measures how much of that cost was TCP
// handshake churn. Writes BENCH_pool.json.
func runPool(scale experiments.Scale, seed int64) error {
	numHosts, pointOps, batchOps := 2_000, 2_000, 200
	if scale == experiments.Full {
		numHosts, pointOps, batchOps = 10_000, 10_000, 1_000
	}
	const (
		dim       = 8
		batchSize = 256
	)
	rng := rand.New(rand.NewSource(seed))

	// The transport is the subject here, not the model: hosts register
	// synthetic epoch-0 vectors directly, which the directory serves
	// without any landmark fit.
	reg := newBenchRegistry()
	srv, err := server.New(server.Config{Landmarks: []string{"lm-0", "lm-1"}, Dim: dim, Seed: seed, Metrics: reg})
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
	pool, err := transport.NewPool(transport.PoolConfig{
		Dialer:         dialer,
		MaxIdlePerHost: *poolFlags.MaxIdle,
		IdleTimeout:    *poolFlags.IdleTimeout,
		MuxConns:       *poolFlags.MuxConns,
		MuxMaxInflight: *poolFlags.MuxMaxInflight,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	pool.RegisterMetrics(reg)

	addrs := make([]string, numHosts)
	var buf []byte
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%06d", i)
		out := make([]float64, dim)
		in := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = rng.Float64() * 10
			in[d] = rng.Float64() * 10
		}
		reg := &wire.RegisterHost{Addr: addrs[i], Out: out, In: in}
		buf = reg.Encode(buf[:0])
		typ, _, err := pool.Call(ctx, addr, wire.TypeRegisterHost, buf)
		if err != nil {
			return err
		}
		if typ != wire.TypeAck {
			return fmt.Errorf("register %s answered %v", addrs[i], typ)
		}
	}

	// Both modes replay identical request streams: caller is a function
	// of (type, payload) so the dial-per-call and pooled passes differ
	// only in transport.
	type caller func(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error)
	dialCall := func(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
		return transport.Call(ctx, dialer, addr, t, payload)
	}
	// The pooled pass threads one reply scratch through CallInto, the
	// way a steady production caller would: after the first exchange the
	// client side of a point query performs no heap allocations.
	var callScratch []byte
	pooledCall := func(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
		rt, rp, scratch, err := pool.CallInto(ctx, addr, t, payload, callScratch)
		callScratch = scratch
		return rt, rp, err
	}

	runPoint := func(call caller, seed int64) (stats.OpSummary, error) {
		rng := rand.New(rand.NewSource(seed))
		lat := make([]time.Duration, pointOps)
		start := time.Now()
		for i := 0; i < pointOps; i++ {
			q := &wire.QueryDist{From: addrs[rng.Intn(numHosts)], To: addrs[rng.Intn(numHosts)]}
			buf = q.Encode(buf[:0])
			t0 := time.Now()
			typ, payload, err := call(wire.TypeQueryDist, buf)
			lat[i] = time.Since(t0)
			if err != nil || typ != wire.TypeDistance {
				return stats.OpSummary{}, fmt.Errorf("QueryDist: %v %v", typ, err)
			}
			if _, err := wire.ParseDistance(payload); err != nil {
				return stats.OpSummary{}, err
			}
		}
		return stats.SummarizeDurations(lat, time.Since(start)), nil
	}
	runBatch := func(call caller, seed int64) (stats.OpSummary, error) {
		rng := rand.New(rand.NewSource(seed))
		lat := make([]time.Duration, batchOps)
		targets := make([]string, batchSize)
		start := time.Now()
		for i := 0; i < batchOps; i++ {
			for j := range targets {
				targets[j] = addrs[rng.Intn(numHosts)]
			}
			q := &wire.QueryBatch{From: addrs[rng.Intn(numHosts)], Targets: targets}
			buf = q.Encode(buf[:0])
			t0 := time.Now()
			typ, payload, err := call(wire.TypeQueryBatch, buf)
			lat[i] = time.Since(t0)
			if err != nil || typ != wire.TypeDistances {
				return stats.OpSummary{}, fmt.Errorf("QueryBatch: %v %v", typ, err)
			}
			if _, err := wire.DecodeDistances(payload); err != nil {
				return stats.OpSummary{}, err
			}
		}
		return stats.SummarizeDurations(lat, time.Since(start)), nil
	}

	// runSweep drives `clients` concurrent goroutines through a fresh
	// pool and summarizes the merged latencies over the wall-clock span.
	// The lockstep leg is the literal one-inflight-per-conn baseline — a
	// dedicated v1 connection per client, one request in flight on each —
	// and the mux leg routes the same clients onto the flag-configured
	// set of multiplexed connections.
	// Each sweep cell runs far more ops than the latency passes: the
	// cells are throughput ratios, and at ~100k ops/s a 2k-op cell is
	// tens of milliseconds — pure scheduler noise. ~1s per cell makes
	// the speedup gates stable.
	sweepOps := 8 * pointOps
	runSweep := func(clients int, mux bool, seed int64) (sweepPoint, error) {
		cfg := transport.PoolConfig{
			Dialer:         dialer,
			MaxIdlePerHost: clients,
			IdleTimeout:    *poolFlags.IdleTimeout,
			MuxConns:       -1,
		}
		if mux {
			cfg.MuxConns = *poolFlags.MuxConns
			cfg.MuxMaxInflight = *poolFlags.MuxMaxInflight
		}
		sp, err := transport.NewPool(cfg)
		if err != nil {
			return sweepPoint{}, err
		}
		defer sp.Close()
		perClient := sweepOps / clients
		lat := make([]time.Duration, clients*perClient)
		errs := make(chan error, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(c)))
				var qbuf, scratch []byte
				for i := 0; i < perClient; i++ {
					q := &wire.QueryDist{From: addrs[rng.Intn(numHosts)], To: addrs[rng.Intn(numHosts)]}
					qbuf = q.Encode(qbuf[:0])
					t0 := time.Now()
					typ, payload, sc, err := sp.CallInto(ctx, addr, wire.TypeQueryDist, qbuf, scratch)
					lat[c*perClient+i] = time.Since(t0)
					scratch = sc
					if err != nil || typ != wire.TypeDistance {
						errs <- fmt.Errorf("sweep %d-client QueryDist: %v %v", clients, typ, err)
						return
					}
					if _, err := wire.ParseDistance(payload); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		for err := range errs {
			return sweepPoint{}, err
		}
		pt := sweepPoint{Clients: clients, Mux: mux, OpSummary: stats.SummarizeDurations(lat, elapsed)}
		if mux {
			ms := sp.MuxStats()
			pt.MuxFlushes, pt.MuxFrames, pt.MuxCoalesced = ms.Flushes, ms.Frames, ms.Coalesced
		}
		return pt, nil
	}

	result := poolResult{Workload: "pool", Hosts: numHosts, Dim: dim}
	if result.PointDial, err = runPoint(dialCall, seed+1); err != nil {
		return err
	}
	if result.PointPooled, err = runPoint(pooledCall, seed+1); err != nil {
		return err
	}
	if result.BatchDial, err = runBatch(dialCall, seed+2); err != nil {
		return err
	}
	if result.BatchPooled, err = runBatch(pooledCall, seed+2); err != nil {
		return err
	}
	if result.PointPooled.P50Us > 0 {
		result.PointP50Speedup = result.PointDial.P50Us / result.PointPooled.P50Us
	}
	if result.BatchPooled.P50Us > 0 {
		result.BatchP50Speedup = result.BatchDial.P50Us / result.BatchPooled.P50Us
	}
	for _, clients := range []int{1, 8, 64} {
		for _, mux := range []bool{false, true} {
			pt, err := runSweep(clients, mux, seed+3)
			if err != nil {
				return err
			}
			result.Sweep = append(result.Sweep, pt)
		}
	}
	sweepAt := func(clients int, mux bool) sweepPoint {
		for _, pt := range result.Sweep {
			if pt.Clients == clients && pt.Mux == mux {
				return pt
			}
		}
		return sweepPoint{}
	}
	if base := sweepAt(8, false); base.OpsPerSec > 0 {
		result.MuxSpeedup8 = sweepAt(8, true).OpsPerSec / base.OpsPerSec
	}
	if base := sweepAt(64, false); base.OpsPerSec > 0 {
		result.MuxSpeedup64 = sweepAt(64, true).OpsPerSec / base.OpsPerSec
	}
	st := pool.Stats()
	result.PoolDials, result.PoolReuses, result.PoolRetries = st.Dials, st.Reuses, st.Retries
	result.ServerMetrics = reg.Export()

	fmt.Printf("\n== Pool workload: %d hosts, pooled vs dial-per-call over loopback TCP ==\n", numHosts)
	fmt.Printf("point query  dial-per-call: %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)\n",
		result.PointDial.Ops, result.PointDial.P50Us, result.PointDial.P99Us, result.PointDial.OpsPerSec)
	fmt.Printf("point query  pooled:        %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)  [p50 %.1fx]\n",
		result.PointPooled.Ops, result.PointPooled.P50Us, result.PointPooled.P99Us, result.PointPooled.OpsPerSec, result.PointP50Speedup)
	fmt.Printf("batch (%d)   dial-per-call: %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)\n",
		batchSize, result.BatchDial.Ops, result.BatchDial.P50Us, result.BatchDial.P99Us, result.BatchDial.OpsPerSec)
	fmt.Printf("batch (%d)   pooled:        %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)  [p50 %.1fx]\n",
		batchSize, result.BatchPooled.Ops, result.BatchPooled.P50Us, result.BatchPooled.P99Us, result.BatchPooled.OpsPerSec, result.BatchP50Speedup)
	fmt.Printf("pool: %d dials, %d reuses, %d retries\n", st.Dials, st.Reuses, st.Retries)

	fmt.Println("\nconcurrency sweep (point queries):")
	for _, pt := range result.Sweep {
		framing := "lockstep"
		if pt.Mux {
			framing = "mux"
		}
		fmt.Printf("  %3d clients  %-8s %d ops, p50=%.0fµs p99=%.0fµs (%.0f ops/s)",
			pt.Clients, framing, pt.Ops, pt.P50Us, pt.P99Us, pt.OpsPerSec)
		if pt.Mux && pt.MuxFlushes > 0 {
			fmt.Printf("  [%d frames / %d flushes, %d coalesced]", pt.MuxFrames, pt.MuxFlushes, pt.MuxCoalesced)
		}
		fmt.Println()
	}
	fmt.Printf("mux speedup: %.2fx at 8 clients, %.2fx at 64 clients\n", result.MuxSpeedup8, result.MuxSpeedup64)

	f, err := os.Create("BENCH_pool.json")
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
	fmt.Println("(wrote BENCH_pool.json)")

	// Gates (checked after the artifact is written so a failing run still
	// leaves BENCH_pool.json behind for diagnosis): the batch p99
	// regression must stay fixed, and multiplexing must actually buy
	// concurrent throughput. The 64-client ≥3x and tail-latency gates
	// only bind at full scale, where the run is long enough for the
	// ratios to be stable.
	if result.BatchPooled.P99Us > result.BatchDial.P99Us {
		return fmt.Errorf("pool gate: batch pooled p99 %.0fµs exceeds dial-per-call p99 %.0fµs",
			result.BatchPooled.P99Us, result.BatchDial.P99Us)
	}
	if result.MuxSpeedup8 < 2 {
		return fmt.Errorf("pool gate: mux speedup at 8 clients %.2fx, want >= 2x", result.MuxSpeedup8)
	}
	if scale == experiments.Full {
		if result.MuxSpeedup64 < 3 {
			return fmt.Errorf("pool gate: mux speedup at 64 clients %.2fx, want >= 3x", result.MuxSpeedup64)
		}
		mux64, lock64 := sweepAt(64, true), sweepAt(64, false)
		if mux64.P99Us > lock64.P99Us {
			return fmt.Errorf("pool gate: mux p99 %.0fµs at 64 clients exceeds lockstep p99 %.0fµs",
				mux64.P99Us, lock64.P99Us)
		}
	}
	return nil
}
