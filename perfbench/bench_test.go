package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := quantile(s, tc.p); got != tc.want {
			t.Errorf("quantile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "encode", Start: 10, End: 30, Parent: 0},
		{Name: "call", Start: 20, End: 50, Parent: 0}, // overlaps encode by 10
		{Name: "inner", Start: 25, End: 35, Parent: 2},
		{Name: "decode", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	// op: 100 minus the union [10,50) ∪ [90,100) = 100-50.
	want := []int64{50, 20, 20, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderAggregates(t *testing.T) {
	var none *Recorder
	if h := none.Begin("op", -1); h != -1 {
		t.Fatalf("nil recorder handed out span %d", h)
	}
	none.End(0) // must not panic

	r := NewRecorder(time.Now(), 3)
	for i := 0; i < 2; i++ {
		root := r.Begin("op", -1)
		child := r.Begin("call", root)
		r.End(child)
		r.End(root)
	}
	aggs, kept := mergeRecorders([]*Recorder{r, nil})
	if aggs["op"].Count != 2 || aggs["call"].Count != 2 {
		t.Fatalf("counts op=%d call=%d, want 2 each", aggs["op"].Count, aggs["call"].Count)
	}
	if op, c := aggs["op"], aggs["call"]; op.Self != op.Total-c.Total {
		t.Errorf("op self %d, want total %d minus child %d", op.Self, op.Total, c.Total)
	}
	if len(kept) != 2 || kept[0].Req != 1 || kept[1].Parent != 0 {
		t.Errorf("kept %+v, want only the first request's two spans", kept)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	ca := &ConnCounts{}
	wa := &countingConn{Conn: a, c: ca}
	go func() {
		wa.Write([]byte("hello"))
		wa.Write([]byte("!"))
		wa.Close()
	}()
	if got, _ := io.ReadAll(b); string(got) != "hello!" {
		t.Fatalf("read %q", got)
	}
	s := ca.snapshot()
	if s.Writes != 2 || s.BytesWritten != 6 || s.Reads != 0 {
		t.Errorf("writer counts %+v, want 2 writes of 6 bytes and no reads", s)
	}
	if d := s.sub(countSnapshot{Writes: 1, BytesWritten: 5}); d.Writes != 1 || d.BytesWritten != 1 {
		t.Errorf("sub = %+v", d)
	}
}

func TestCountingListenerAndDialer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sc, cc := &ConnCounts{}, &ConnCounts{}
	cln := &countingListener{Listener: ln, C: sc}
	defer cln.Close()
	done := make(chan []byte)
	go func() {
		conn, err := cln.Accept()
		if err != nil {
			done <- nil
			return
		}
		buf := make([]byte, 4)
		_, err = io.ReadFull(conn, buf)
		conn.Close()
		if err != nil {
			buf = nil
		}
		done <- buf
	}()
	d := &countingDialer{D: &net.Dialer{}, C: cc}
	conn, err := d.DialContext(t.Context(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got := <-done; string(got) != "ping" {
		t.Fatalf("server read %q", got)
	}
	conn.Close()
	if c := cc.snapshot(); c.Conns != 1 || c.Writes != 1 || c.BytesWritten != 4 {
		t.Errorf("dialer counts %+v", c)
	}
	if s := sc.snapshot(); s.Conns != 1 || s.BytesRead != 4 || s.Reads < 1 {
		t.Errorf("listener counts %+v", s)
	}
}

// testHosts is four hosts whose estimates (out·in) check by hand.
func testHosts() *hostSet {
	h := newHostSet(4)
	h.add("a", []float64{1, 0}, []float64{0, 1})
	h.add("b", []float64{2, 1}, []float64{1, 2})
	h.add("c", []float64{3, 1}, []float64{2, 1})
	h.add("d", []float64{1, 1}, []float64{3, 3})
	return h
}

func TestCheckDistRejectsWrongReply(t *testing.T) {
	h := testHosts()
	if err := h.checkDist(wire.Distance{Found: true, Millis: h.est(0, 1)}, 0, 1); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for _, d := range []wire.Distance{{Found: false, Millis: h.est(0, 1)}, {Found: true, Millis: h.est(0, 1) * (1 + 1e-6)}} {
		if err := h.checkDist(d, 0, 1); err == nil {
			t.Errorf("wrong answer %+v accepted", d)
		}
	}
}

func TestCheckBatchRejectsWrongReply(t *testing.T) {
	h := testHosts()
	targets := []int{1, 2}
	good := func() *wire.Distances {
		return &wire.Distances{SrcFound: true, Results: []wire.DistResult{
			{Found: true, Millis: h.est(0, 1)}, {Found: true, Millis: h.est(0, 2)}}}
	}
	if err := h.checkBatch(good(), 0, targets); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(*wire.Distances){
		"source missing": func(d *wire.Distances) { d.SrcFound = false },
		"short":          func(d *wire.Distances) { d.Results = d.Results[:1] },
		"target missing": func(d *wire.Distances) { d.Results[1].Found = false },
		"wrong value":    func(d *wire.Distances) { d.Results[1].Millis++ },
	} {
		d := good()
		mutate(d)
		if err := h.checkBatch(d, 0, targets); err == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
}

func TestCheckKNNRejectsWrongReply(t *testing.T) {
	h := testHosts()
	// From a (out 1,0): b=1, c=2, d=3.
	good := func() *wire.Neighbors {
		return &wire.Neighbors{SrcFound: true, Entries: []wire.NeighborEntry{
			{Addr: "b", Millis: 1}, {Addr: "c", Millis: 2}}}
	}
	if err := h.checkKNN(good(), 0, 2); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := h.checkKNNExact([]float64{1, 2}, 0); err != nil {
		t.Fatalf("true nearest rejected: %v", err)
	}
	for name, mutate := range map[string]func(*wire.Neighbors){
		"source missing": func(n *wire.Neighbors) { n.SrcFound = false },
		"too few":        func(n *wire.Neighbors) { n.Entries = n.Entries[:1] },
		"unknown host":   func(n *wire.Neighbors) { n.Entries[0].Addr = "zz" },
		"includes self":  func(n *wire.Neighbors) { n.Entries[0] = wire.NeighborEntry{Addr: "a", Millis: 0} },
		"wrong value":    func(n *wire.Neighbors) { n.Entries[1].Millis = 2.5 },
		"not ascending":  func(n *wire.Neighbors) { n.Entries[0], n.Entries[1] = n.Entries[1], n.Entries[0] },
	} {
		n := good()
		mutate(n)
		if err := h.checkKNN(n, 0, 2); err == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
	// A consistent answer that skipped the true nearest (b) passes the
	// shape check but not brute force.
	if err := h.checkKNNExact([]float64{2, 3}, 0); err == nil {
		t.Error("answer missing the true nearest accepted by brute force")
	}
}

func TestResultLine(t *testing.T) {
	r := newReport()
	r.ops(10, 1)
	vals := map[string]float64{}
	for i, d := range e2eMetrics {
		vals[d.Name] = float64(i + 1)
	}
	line, err := resultLine(e2eMetrics, vals, r, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":true`) || !strings.Contains(line, `"setup_s":{"value":1,"unit":"s"}`) {
		t.Errorf("unexpected line %s", line)
	}
	delete(vals, "setup_s")
	if _, err := resultLine(e2eMetrics, vals, r, true); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
	if _, err := resultLine(layerMetrics, map[string]float64{"bogus": 1}, r, false); err == nil {
		t.Error("undeclared metric accepted")
	}
	r.wrong(io.ErrUnexpectedEOF)
	line, err = resultLine(layerMetrics, map[string]float64{}, r, false)
	if err != nil || !strings.Contains(line, `"correct":false`) {
		t.Errorf("failed check not reported: %s %v", line, err)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and the
// metric tables the benchmark prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestRepeatSetup(t *testing.T) {
	built := 0
	var retired []int
	last, times, err := repeatSetup(3, func() (int, error) { built++; return built, nil },
		func(v int) { retired = append(retired, v) })
	if err != nil || last != 3 || len(times) != 3 {
		t.Fatalf("got last %d, %d times, err %v; want the third of 3 builds", last, len(times), err)
	}
	if len(retired) != 2 || retired[0] != 1 || retired[1] != 2 {
		t.Errorf("retired %v, want [1 2]", retired)
	}
	if _, _, err := repeatSetup(2, func() (int, error) { return 0, io.EOF }, func(int) {}); err != io.EOF {
		t.Errorf("build error %v not returned", err)
	}
}
