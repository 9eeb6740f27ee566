package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// caller is one closed-loop client goroutine: it sends a request, waits
// for the reply, checks it, and only then sends the next. Each caller
// owns its buffers, random stream, span recorder and tallies.
type caller struct {
	pool  *transport.Pool
	hosts *hostSet
	rng   *rand.Rand
	rec   *Recorder // nil in untraced runs

	buf, scratch []byte
	targets      []int
	targetNames  []string

	dist, batch, knn latencies
	calls            latencies // transport.call durations, traced runs only
	wire             wireSamples

	start             time.Time // the timed window's start
	attempted, failed int64
	wrong             []error
	transportErrs     []error
	knnSamples        []knnSample
}

// knnSample is a k-NN answer kept for the brute-force check after the
// timed window.
type knnSample struct {
	src    int
	millis []float64
}

// knnSampleEvery keeps every this-many-th k-NN answer for the
// brute-force check.
const knnSampleEvery = 8

func newCaller(pool *transport.Pool, hosts *hostSet, seed int64, rec *Recorder) *caller {
	return &caller{pool: pool, hosts: hosts, rng: rand.New(rand.NewSource(seed)), rec: rec}
}

// exchange sends c.buf as one request of type t and times the transport
// call as a child span of root.
func (c *caller) exchange(ctx context.Context, root int, addr string, t wire.MsgType) (wire.MsgType, []byte, error) {
	h := c.rec.Begin("transport.call", root)
	start := time.Now()
	rt, rp, scratch, err := c.pool.CallInto(ctx, addr, t, c.buf, c.scratch)
	if c.rec != nil {
		c.calls.add(time.Since(start))
		c.wire.keep(t, c.buf, rt, rp, err)
	}
	c.scratch = scratch
	c.rec.End(h)
	return rt, rp, err
}

// outcome tallies one finished operation. A transport or wire error
// counts as failed; a wrong answer also fails the run.
func (c *caller) outcome(into *latencies, el time.Duration, err, checkErr error) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		if len(c.transportErrs) < 5 {
			c.transportErrs = append(c.transportErrs, err)
		}
	case checkErr != nil:
		c.failed++
		c.wrong = append(c.wrong, checkErr)
	default:
		into.addAt(el, time.Since(c.start))
	}
}

// replyErr turns a reply of the wrong type into an error.
func replyErr(err error, got, want wire.MsgType) error {
	if err == nil && got != want {
		return fmt.Errorf("got a %v reply, want %v", got, want)
	}
	return err
}

// queryDist runs one checked QueryDist from host i to host j.
func (c *caller) queryDist(ctx context.Context, addr string, i, j int) {
	t0 := time.Now()
	root := c.rec.Begin("op.query_dist", -1)
	h := c.rec.Begin("wire.encode", root)
	q := wire.QueryDist{From: c.hosts.names[i], To: c.hosts.names[j]}
	c.buf = q.Encode(c.buf[:0])
	c.rec.End(h)
	rt, rp, err := c.exchange(ctx, root, addr, wire.TypeQueryDist)
	err = replyErr(err, rt, wire.TypeDistance)
	h = c.rec.Begin("wire.decode", root)
	var d wire.Distance
	if err == nil {
		d, err = wire.ParseDistance(rp)
	}
	c.rec.End(h)
	c.rec.End(root)
	el := time.Since(t0)
	var checkErr error
	if err == nil {
		checkErr = c.hosts.checkDist(d, i, j)
	}
	c.outcome(&c.dist, el, err, checkErr)
}

// queryBatch runs one checked QueryBatch from host src to n random
// targets.
func (c *caller) queryBatch(ctx context.Context, addr string, src, n int) {
	c.targets, c.targetNames = c.targets[:0], c.targetNames[:0]
	for k := 0; k < n; k++ {
		t := c.rng.Intn(c.hosts.len())
		c.targets = append(c.targets, t)
		c.targetNames = append(c.targetNames, c.hosts.names[t])
	}
	t0 := time.Now()
	root := c.rec.Begin("op.query_batch", -1)
	h := c.rec.Begin("wire.encode", root)
	q := wire.QueryBatch{From: c.hosts.names[src], Targets: c.targetNames}
	c.buf = q.Encode(c.buf[:0])
	c.rec.End(h)
	rt, rp, err := c.exchange(ctx, root, addr, wire.TypeQueryBatch)
	err = replyErr(err, rt, wire.TypeDistances)
	h = c.rec.Begin("wire.decode", root)
	var d *wire.Distances
	if err == nil {
		d, err = wire.DecodeDistances(rp)
	}
	c.rec.End(h)
	c.rec.End(root)
	el := time.Since(t0)
	var checkErr error
	if err == nil {
		checkErr = c.hosts.checkBatch(d, src, c.targets)
	}
	c.outcome(&c.batch, el, err, checkErr)
}

// queryKNN runs one checked QueryKNN from host src, keeping every
// knnSampleEvery-th answer for the brute-force check.
func (c *caller) queryKNN(ctx context.Context, addr string, src, k int) {
	t0 := time.Now()
	root := c.rec.Begin("op.query_knn", -1)
	h := c.rec.Begin("wire.encode", root)
	q := wire.QueryKNN{From: c.hosts.names[src], K: uint32(k)}
	c.buf = q.Encode(c.buf[:0])
	c.rec.End(h)
	rt, rp, err := c.exchange(ctx, root, addr, wire.TypeQueryKNN)
	err = replyErr(err, rt, wire.TypeNeighbors)
	h = c.rec.Begin("wire.decode", root)
	var n *wire.Neighbors
	if err == nil {
		n, err = wire.DecodeNeighbors(rp)
	}
	c.rec.End(h)
	c.rec.End(root)
	el := time.Since(t0)
	var checkErr error
	if err == nil {
		checkErr = c.hosts.checkKNN(n, src, k)
	}
	c.outcome(&c.knn, el, err, checkErr)
	if err == nil && checkErr == nil && (len(c.knn.us)-1)%knnSampleEvery == 0 {
		s := knnSample{src: src, millis: make([]float64, len(n.Entries))}
		for i, e := range n.Entries {
			s.millis[i] = e.Millis
		}
		c.knnSamples = append(c.knnSamples, s)
	}
}

// tally folds the callers' counts and check failures into r.
func tally(r *report, callers []*caller) {
	for _, c := range callers {
		r.ops(c.attempted, c.failed)
		for _, err := range c.wrong {
			r.wrong(err)
		}
		for _, err := range c.transportErrs {
			r.logf("call failed: %v", err)
		}
	}
}

// runCallers runs one closed-loop caller per element of callers until
// the window closes and returns the window's wall length.
func runCallers(window time.Duration, callers []*caller, loop func(c *caller, deadline time.Time)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for _, c := range callers {
		c.start = start
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			loop(c, deadline)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// okOps counts the callers' successful operations.
func okOps(callers []*caller) int64 {
	var n int64
	for _, c := range callers {
		n += c.attempted - c.failed
	}
	return n
}

// tracedParts collects the callers' span recorders and kept messages
// and merges their transport call timings.
func tracedParts(callers []*caller) ([]*Recorder, *latencies, []*wireSamples) {
	var recs []*Recorder
	var calls latencies
	var samples []*wireSamples
	for _, c := range callers {
		recs = append(recs, c.rec)
		calls.merge(&c.calls)
		samples = append(samples, &c.wire)
	}
	return recs, &calls, samples
}
