package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// landscape is a workload's generated input: a topology whose first
// numLM hosts are landmarks and the rest ordinary hosts. Ground-truth
// RTTs come from the topology.
type landscape struct {
	topo     *topology.Topology
	lmNames  []string
	numHosts int
}

func newLandscape(seed int64, numLM, numHosts, hostsPerStub int) (*landscape, error) {
	topo, err := topology.Generate(topology.Config{Seed: seed, NumHosts: numLM + numHosts, HostsPerStub: hostsPerStub})
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	ls := &landscape{topo: topo, numHosts: numHosts}
	for i := 0; i < numLM; i++ {
		ls.lmNames = append(ls.lmNames, fmt.Sprintf("lm-%02d", i))
	}
	return ls, nil
}

func (ls *landscape) numLM() int { return len(ls.lmNames) }

// hostTopo maps ordinary host h to its topology index.
func (ls *landscape) hostTopo(h int) int { return ls.numLM() + h }

func hostName(h int) string { return fmt.Sprintf("h%06d", h) }

// lmTruth is the ground-truth RTT matrix among the landmarks.
func (ls *landscape) lmTruth() *mat.Dense {
	m := ls.numLM()
	d := mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				d.Set(i, j, ls.topo.RTT(i, j))
			}
		}
	}
	return d
}

// traceKit holds the connection counters a traced run installs on the
// client dialer and the server listeners (its servers also get a
// registry, see startServer). Nil for untraced runs.
type traceKit struct {
	client *ConnCounts
	server *ConnCounts
}

func newTraceKit() *traceKit { return &traceKit{client: &ConnCounts{}, server: &ConnCounts{}} }

// runningServer is one server serving on a loopback listener.
type runningServer struct {
	srv    *server.Server
	addr   string
	reg    *telemetry.Registry
	cancel context.CancelFunc
	done   chan struct{}
}

// startServer builds a server from cfg and serves it on 127.0.0.1. A
// traced run gives it a registry and counts its accepted connections.
func startServer(cfg server.Config, tk *traceKit) (*runningServer, error) {
	if tk != nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	rs := &runningServer{srv: srv, addr: ln.Addr().String(), reg: cfg.Metrics, done: make(chan struct{})}
	if tk != nil {
		ln = &countingListener{Listener: ln, C: tk.server}
	}
	ctx, cancel := context.WithCancel(context.Background())
	rs.cancel = cancel
	go func() {
		defer close(rs.done)
		srv.Serve(ctx, ln) //nolint:errcheck // returns ctx.Err() on shutdown
	}()
	return rs, nil
}

func (rs *runningServer) close() {
	rs.cancel()
	<-rs.done
	rs.srv.Close()
}

// export reads the server's registry, empty for untraced servers.
func (rs *runningServer) export() map[string]float64 {
	if rs.reg == nil {
		return map[string]float64{}
	}
	return rs.reg.Export()
}

// newPool builds a client pool with the transport's default
// configuration, counting its connections in a traced run.
func newPool(tk *traceKit) (*transport.Pool, error) {
	var d transport.Dialer = &net.Dialer{Timeout: 5 * time.Second}
	if tk != nil {
		d = &countingDialer{D: d, C: tk.client}
	}
	return transport.NewPool(transport.PoolConfig{Dialer: d})
}

// call runs one exchange and turns an unexpected reply type into an
// error.
func call(ctx context.Context, pool *transport.Pool, addr string, t, want wire.MsgType, payload []byte) ([]byte, error) {
	rt, rp, err := pool.Call(ctx, addr, t, payload)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", t, err)
	}
	if rt != want {
		return nil, fmt.Errorf("%v answered %v", t, rt)
	}
	return rp, nil
}

// measuredRow is landmark from's report of its RTTs to every other
// landmark: the truth, each entry scaled by jitter() when jitter is set.
func measuredRow(ls *landscape, truth *mat.Dense, from int, jitter func() float64) wire.ReportRTT {
	rep := wire.ReportRTT{From: ls.lmNames[from], Entries: make([]wire.RTTEntry, 0, ls.numLM()-1)}
	for j, to := range ls.lmNames {
		if j == from {
			continue
		}
		ms := truth.At(from, j)
		if jitter != nil {
			ms *= jitter()
		}
		rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: ms})
	}
	return rep
}

// seedModel reports every landmark's exact row and waits for the first
// fit, then returns the served model as hosts fetch it.
func seedModel(ctx context.Context, pool *transport.Pool, leader *runningServer, ls *landscape, truth *mat.Dense) (*wire.Model, error) {
	for i := range ls.lmNames {
		rep := measuredRow(ls, truth, i, nil)
		if _, err := call(ctx, pool, leader.addr, wire.TypeReportRTT, wire.TypeAck, rep.Encode(nil)); err != nil {
			return nil, err
		}
	}
	if _, err := leader.srv.Refit(ctx); err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	if err := leader.srv.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	payload, err := call(ctx, pool, leader.addr, wire.TypeGetModel, wire.TypeModel, nil)
	if err != nil {
		return nil, err
	}
	m, err := wire.DecodeModel(payload)
	if err != nil {
		return nil, fmt.Errorf("decode model: %w", err)
	}
	if m.Epoch == 0 || len(m.Landmarks) != ls.numLM() {
		return nil, fmt.Errorf("model at epoch %d with %d landmarks", m.Epoch, len(m.Landmarks))
	}
	return m, nil
}

// registerHosts solves every ordinary host's vectors against model from
// its ground-truth RTTs to the landmarks, the way a host would, and
// registers them at the model's epoch, from `workers` goroutines. The
// solved vectors are returned as the reference copy.
func registerHosts(ctx context.Context, pool *transport.Pool, addr string, ls *landscape, model *wire.Model, workers int) (*hostSet, error) {
	m, d := ls.numLM(), int(model.Dim)
	refOut, refIn := mat.NewDense(m, d), mat.NewDense(m, d)
	for i, l := range model.Landmarks {
		if l.Addr != ls.lmNames[i] {
			return nil, fmt.Errorf("model landmark %d is %q, want %q", i, l.Addr, ls.lmNames[i])
		}
		refOut.SetRow(i, l.Out)
		refIn.SetRow(i, l.In)
	}
	vecs := make([]core.Vectors, ls.numHosts)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dout, din := make([]float64, m), make([]float64, m)
			var buf, scratch []byte
			for h := w; h < ls.numHosts; h += workers {
				t := ls.hostTopo(h)
				for l := 0; l < m; l++ {
					dout[l] = ls.topo.RTT(t, l)
					din[l] = ls.topo.RTT(l, t)
				}
				v, err := core.SolveVectors(refOut, refIn, dout, din)
				if err != nil {
					errs[w] = fmt.Errorf("solve %s: %w", hostName(h), err)
					return
				}
				vecs[h] = v
				reg := wire.RegisterHost{Addr: hostName(h), Out: v.Out, In: v.In, Epoch: model.Epoch}
				buf = reg.Encode(buf[:0])
				var rt wire.MsgType
				rt, _, scratch, err = pool.CallInto(ctx, addr, wire.TypeRegisterHost, buf, scratch)
				if err != nil || rt != wire.TypeAck {
					errs[w] = fmt.Errorf("register %s: %v %v", hostName(h), rt, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	hs := newHostSet(ls.numHosts)
	for h, v := range vecs {
		hs.add(hostName(h), v.Out, v.In)
	}
	return hs, nil
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// handleMean reads the mean server handling time of one request type
// between two registry exports, in microseconds.
func handleMean(a, b map[string]float64, msgType string) float64 {
	key := fmt.Sprintf("{type=%q}", msgType)
	n := b["ides_server_request_seconds_count"+key] - a["ides_server_request_seconds_count"+key]
	if n <= 0 {
		return 0
	}
	return (b["ides_server_request_seconds_sum"+key] - a["ides_server_request_seconds_sum"+key]) / n * 1e6
}

// counterDelta is b[name]-a[name].
func counterDelta(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
