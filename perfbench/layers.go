package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// tierCounters is every outside-readable counter of a serving tier at
// one instant: the servers' registries, the client pool and the counting
// connections.
type tierCounters struct {
	exports []map[string]float64
	pool    transport.PoolStats
	mux     transport.MuxStats
	client  countSnapshot
	server  countSnapshot
}

func readTier(pool *transport.Pool, tk *traceKit, servers ...*runningServer) tierCounters {
	tc := tierCounters{pool: pool.Stats(), mux: pool.MuxStats(), client: tk.client.snapshot(), server: tk.server.snapshot()}
	for _, s := range servers {
		tc.exports = append(tc.exports, s.export())
	}
	return tc
}

// wireTypes maps the per-layer handler metric suffixes to wire message
// type names as the server labels them.
var wireTypes = map[string]string{
	"query_dist":  "QueryDist",
	"query_batch": "QueryBatch",
	"query_knn":   "QueryKNN",
	"report":      "ReportRTT",
}

// tierLayers derives the wire, transport and server per-layer metrics of
// a traced window of ops operations from the counters around it and the
// callers' spans.
func tierLayers(a, b tierCounters, ops int64, aggs map[string]spanAgg, calls *latencies, out map[string]float64) {
	if ops <= 0 {
		ops = 1
	}
	perOp := func(v int64) float64 { return float64(v) / float64(ops) }
	cl, sv := b.client.sub(a.client), b.server.sub(a.server)
	out["wire.req_bytes"] = perOp(cl.BytesWritten)
	out["wire.reply_bytes"] = perOp(cl.BytesRead)
	out["transport.client_writes_per_op"] = perOp(cl.Writes)
	out["transport.server_writes_per_op"] = perOp(sv.Writes)
	out["transport.server_reads_per_op"] = perOp(sv.Reads)
	out["transport.dials_per_op"] = perOp(b.pool.Dials - a.pool.Dials)
	if fl := b.mux.Flushes - a.mux.Flushes; fl > 0 {
		out["transport.frames_per_flush"] = float64(b.mux.Frames-a.mux.Frames) / float64(fl)
	}
	cs := calls.summarize()
	out["transport.call_p50_us"] = cs.p(50)
	out["transport.call_p99_us"] = cs.p(99)

	var handleSum, handleN, requests, coalesced float64
	for i := range b.exports {
		ea, eb := a.exports[i], b.exports[i]
		for suffix, typ := range wireTypes {
			if v := handleMean(ea, eb, typ); v > 0 {
				out["server.handle_us."+suffix] = v
			}
		}
		for k, v := range eb {
			switch {
			case strings.HasPrefix(k, "ides_server_request_seconds_sum{"):
				handleSum += v - ea[k]
			case strings.HasPrefix(k, "ides_server_request_seconds_count{"):
				handleN += v - ea[k]
			case strings.HasPrefix(k, "ides_server_requests_total{"):
				requests += v - ea[k]
			}
		}
		coalesced += counterDelta(ea, eb, "ides_mux_frames_coalesced_total")
		hits := counterDelta(ea, eb, "ides_query_knn_index_hits_total")
		falls := counterDelta(ea, eb, "ides_query_knn_index_fallbacks_total")
		if hits+falls > 0 {
			out["query.knn_index_hit_frac"] = hits / (hits + falls)
		}
		out["query.knn_index_builds"] += counterDelta(ea, eb, "ides_query_knn_index_builds_total")
	}
	if requests > 0 {
		out["server.coalesced_frac"] = coalesced / requests
	}
	if handleN > 0 {
		out["transport.self_us"] = cs.Mean - handleSum/handleN*1e6
	}
	var total, self int64
	for name, ag := range aggs {
		if strings.HasPrefix(name, "op.") {
			total += ag.Total
			self += ag.Self
		}
	}
	if total > 0 {
		out["trace.residual_frac"] = float64(self) / float64(total)
	}
}

// queryLayers times the query layer in process on a live server's
// engine, with the workload's own hosts as inputs: point estimates,
// 64-target batches, k=8 nearest-neighbour searches and directory reads.
func queryLayers(eng *query.Engine, hosts *hostSet, seed int64, out map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := hosts.len()
	const pairs, batches, knns = 20000, 500, 500
	from, to := make([][]byte, pairs), make([][]byte, pairs)
	for i := range from {
		from[i], to[i] = []byte(hosts.names[rng.Intn(n)]), []byte(hosts.names[rng.Intn(n)])
	}
	var sink float64
	start := time.Now()
	for i := range from {
		v, _ := eng.EstimatePair(from[i], to[i])
		sink += v
	}
	out["query.pair_ns"] = float64(time.Since(start)) / pairs

	dir := eng.Directory()
	start = time.Now()
	for i := range from {
		v, _ := dir.Get(hosts.names[i%n])
		sink += float64(len(v.Out))
	}
	out["query.dir_get_ns"] = float64(time.Since(start)) / pairs

	targets := make([]string, 64)
	var batchTime time.Duration
	for b := 0; b < batches; b++ {
		for k := range targets {
			targets[k] = hosts.names[rng.Intn(n)]
		}
		src := rng.Intn(n)
		v := core.Vectors{Out: hosts.out[src], In: hosts.in[src]}
		t0 := time.Now()
		res := eng.EstimateBatch(v, targets)
		batchTime += time.Since(t0)
		sink += res[0].Millis
	}
	out["query.batch_us"] = float64(batchTime) / 1e3 / batches

	var knnTime time.Duration
	for q := 0; q < knns; q++ {
		src := rng.Intn(n)
		v := core.Vectors{Out: hosts.out[src], In: hosts.in[src]}
		t0 := time.Now()
		res := eng.KNearest(v, readMixK, query.KNNOptions{Exclude: hosts.names[src]})
		knnTime += time.Since(t0)
		if len(res) > 0 {
			sink += res[0].Millis
		}
	}
	out["query.knn_us"] = float64(knnTime) / 1e3 / knns
	querySink = sink
}

// querySink keeps the timed query loops' results live.
var querySink float64

// traceFile names a traced run's span file.
func traceFile(cfg runConfig) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// finishTrace merges the callers' spans, writes them out and returns the
// aggregates.
func finishTrace(cfg runConfig, r *report, recs []*Recorder) map[string]spanAgg {
	aggs, spans := mergeRecorders(recs)
	path := traceFile(cfg)
	if err := writeTrace(path, aggs, spans); err != nil {
		r.logf("trace not written: %v", err)
	} else {
		r.logf("trace: %d spans kept, written to %s", len(spans), path)
	}
	return aggs
}

// wireSamples keeps copies of a share of a traced window's requests and
// replies, so the codec costs can be timed afterwards in tight loops
// over the workload's own messages, free of the scheduling noise a
// busy window puts into per-call spans.
type wireSamples struct {
	seen    int
	reqs    []wireMsg
	replies []wireMsg
}

type wireMsg struct {
	t       wire.MsgType
	payload []byte
}

// wireKeepEvery and wireKeepMax bound how many messages are kept.
const (
	wireKeepEvery = 8
	wireKeepMax   = 4096
)

func (w *wireSamples) keep(t wire.MsgType, req []byte, rt wire.MsgType, reply []byte, err error) {
	w.seen++
	if err != nil || w.seen%wireKeepEvery != 0 || len(w.reqs) >= wireKeepMax {
		return
	}
	w.add(t, req, rt, reply)
}

func (w *wireSamples) add(t wire.MsgType, req []byte, rt wire.MsgType, reply []byte) {
	w.reqs = append(w.reqs, wireMsg{t, append([]byte(nil), req...)})
	w.replies = append(w.replies, wireMsg{rt, append([]byte(nil), reply...)})
}

// encoder rebuilds a request's message value so its Encode can be timed.
func encoder(m wireMsg) (func([]byte) []byte, error) {
	switch m.t {
	case wire.TypeQueryDist:
		v, err := wire.DecodeQueryDist(m.payload)
		return encodeOf(v, err)
	case wire.TypeQueryBatch:
		v, err := wire.DecodeQueryBatch(m.payload)
		return encodeOf(v, err)
	case wire.TypeQueryKNN:
		v, err := wire.DecodeQueryKNN(m.payload)
		return encodeOf(v, err)
	case wire.TypeReportRTT:
		v, err := wire.DecodeReportRTT(m.payload)
		return encodeOf(v, err)
	case wire.TypeGossipExchange:
		v, err := wire.DecodeGossipExchange(m.payload)
		return encodeOf(v, err)
	}
	return nil, fmt.Errorf("no encoder for %v", m.t)
}

func encodeOf[M interface{ Encode([]byte) []byte }](v M, err error) (func([]byte) []byte, error) {
	if err != nil {
		return nil, err
	}
	return v.Encode, nil
}

// decoder returns the client's decode call for a reply type, nil for
// replies without a payload to decode (Ack).
func decoder(t wire.MsgType) func([]byte) error {
	switch t {
	case wire.TypeDistance:
		return func(b []byte) error { _, err := wire.ParseDistance(b); return err }
	case wire.TypeDistances:
		return func(b []byte) error { _, err := wire.DecodeDistances(b); return err }
	case wire.TypeNeighbors:
		return func(b []byte) error { _, err := wire.DecodeNeighbors(b); return err }
	case wire.TypeGossipReply:
		return func(b []byte) error { _, err := wire.DecodeGossipReply(b); return err }
	}
	return nil
}

// wireCosts times Encode over the kept requests and the client decode
// over the kept replies, as the mean nanoseconds per message across the
// workload's mix.
func wireCosts(samples []*wireSamples, out map[string]float64) error {
	var encs []func([]byte) []byte
	var decs []func([]byte) error
	var payloads [][]byte
	for _, w := range samples {
		for i, m := range w.reqs {
			enc, err := encoder(m)
			if err != nil {
				return err
			}
			encs = append(encs, enc)
			if dec := decoder(w.replies[i].t); dec != nil {
				decs = append(decs, dec)
				payloads = append(payloads, w.replies[i].payload)
			}
		}
	}
	const reps = 20
	var buf []byte
	if len(encs) > 0 {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, enc := range encs {
				buf = enc(buf[:0])
			}
		}
		out["wire.encode_ns"] = float64(time.Since(start)) / float64(reps*len(encs))
	}
	if len(decs) > 0 {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i, dec := range decs {
				if err := dec(payloads[i]); err != nil {
					return fmt.Errorf("decode kept reply: %w", err)
				}
			}
		}
		out["wire.decode_ns"] = float64(time.Since(start)) / float64(reps*len(decs))
	}
	return nil
}
