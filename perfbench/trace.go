package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/transport"
)

// Span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Times are nanoseconds since the
// recorder's base. Parent is the index of the enclosing span within the
// same request, -1 for a request's root. Spans of one request share Req.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// spanAgg accumulates one span name's count, total duration and total
// self time (duration minus the parts covered by its children).
type spanAgg struct {
	Count int64
	Total int64
	Self  int64
}

// selfTimes returns each span's self time: its duration minus the union
// of the intervals its direct children cover, clipped to the span. The
// spans must belong to one request; Parent indexes into the slice.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	children := make([][]int, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, kids := range children {
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		lo, hi := spans[i].Start, spans[i].End
		var covered int64
		cur := lo
		for _, k := range kids {
			s, e := max(spans[k].Start, cur), min(spans[k].End, hi)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		self[i] -= covered
	}
	return self
}

// Recorder keeps spans in memory for one caller goroutine (it is not
// safe for concurrent use; each caller owns one and they are merged at
// the end). Every span feeds its name's aggregate; the first keepMax
// spans are also retained verbatim for the trace file.
type Recorder struct {
	base    time.Time
	req     uint64
	open    []Span
	kept    []Span
	keepMax int
	aggs    map[string]*spanAgg
}

// NewRecorder returns a recorder whose timestamps count from base and
// which retains at most keepMax spans for the trace file.
func NewRecorder(base time.Time, keepMax int) *Recorder {
	return &Recorder{base: base, keepMax: keepMax, aggs: make(map[string]*spanAgg)}
}

// Begin opens a span named name under parent (-1 starts a new request)
// and returns its handle for End. A nil recorder records nothing.
func (r *Recorder) Begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	if parent < 0 {
		r.req++
		r.open = r.open[:0]
	}
	r.open = append(r.open, Span{Name: name, Start: int64(time.Since(r.base)), Parent: parent, Req: r.req})
	return len(r.open) - 1
}

// End closes span h. Closing a request's root folds the request's spans
// into the aggregates.
func (r *Recorder) End(h int) {
	if r == nil || h < 0 {
		return
	}
	r.open[h].End = int64(time.Since(r.base))
	if r.open[h].Parent >= 0 {
		return
	}
	self := selfTimes(r.open)
	for i, s := range r.open {
		a := r.aggs[s.Name]
		if a == nil {
			a = &spanAgg{}
			r.aggs[s.Name] = a
		}
		a.Count++
		a.Total += s.End - s.Start
		a.Self += self[i]
	}
	if len(r.kept)+len(r.open) <= r.keepMax {
		r.kept = append(r.kept, r.open...)
	}
}

// mergeRecorders folds several callers' recorders into one aggregate map
// and one retained span list.
func mergeRecorders(recs []*Recorder) (map[string]spanAgg, []Span) {
	out := make(map[string]spanAgg)
	var kept []Span
	for _, r := range recs {
		if r == nil {
			continue
		}
		for name, a := range r.aggs {
			o := out[name]
			o.Count += a.Count
			o.Total += a.Total
			o.Self += a.Self
			out[name] = o
		}
		kept = append(kept, r.kept...)
	}
	return out, kept
}

// writeTrace writes the retained spans and the per-name aggregates as
// one JSON document.
func writeTrace(path string, aggs map[string]spanAgg, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Aggregates map[string]spanAgg `json:"aggregates"`
		Spans      []Span             `json:"spans"`
	}{aggs, spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace encode: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}

// ConnCounts tallies the traffic of every connection opened through one
// counting Dialer or accepted through one counting Listener.
type ConnCounts struct {
	Conns        atomic.Int64
	Reads        atomic.Int64
	Writes       atomic.Int64
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
}

// countSnapshot is a point-in-time copy of ConnCounts.
type countSnapshot struct {
	Conns, Reads, Writes, BytesRead, BytesWritten int64
}

func (c *ConnCounts) snapshot() countSnapshot {
	return countSnapshot{
		Conns: c.Conns.Load(), Reads: c.Reads.Load(), Writes: c.Writes.Load(),
		BytesRead: c.BytesRead.Load(), BytesWritten: c.BytesWritten.Load(),
	}
}

func (a countSnapshot) sub(b countSnapshot) countSnapshot {
	return countSnapshot{a.Conns - b.Conns, a.Reads - b.Reads, a.Writes - b.Writes,
		a.BytesRead - b.BytesRead, a.BytesWritten - b.BytesWritten}
}

// countingConn counts Read and Write calls and bytes on a net.Conn.
type countingConn struct {
	net.Conn
	c *ConnCounts
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.Reads.Add(1)
	cc.c.BytesRead.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.Writes.Add(1)
	cc.c.BytesWritten.Add(int64(n))
	return n, err
}

// countingDialer wraps a transport.Dialer so every connection it opens
// counts into C.
type countingDialer struct {
	D transport.Dialer
	C *ConnCounts
}

func (d *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := d.D.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.C.Conns.Add(1)
	return &countingConn{Conn: conn, c: d.C}, nil
}

// countingListener wraps a net.Listener so every accepted connection
// counts into C.
type countingListener struct {
	net.Listener
	C *ConnCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.C.Conns.Add(1)
	return &countingConn{Conn: conn, c: l.C}, nil
}
