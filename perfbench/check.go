package main

import (
	"fmt"
	"math"

	"github.com/ides-go/ides/internal/wire"
)

// relTol is how far a served estimate may sit from the benchmark's own
// Out·In product, relative to the product's magnitude: the sum of the
// absolute values of its terms, which bounds the rounding a different
// summation order can introduce even when the terms cancel.
const relTol = 1e-9

// hostSet is the benchmark's own copy of every registered host's
// vectors, the reference every answer is checked against.
type hostSet struct {
	names []string
	index map[string]int
	out   [][]float64
	in    [][]float64
}

func newHostSet(n int) *hostSet {
	return &hostSet{
		names: make([]string, 0, n),
		index: make(map[string]int, n),
		out:   make([][]float64, 0, n),
		in:    make([][]float64, 0, n),
	}
}

func (h *hostSet) add(name string, out, in []float64) {
	h.index[name] = len(h.names)
	h.names = append(h.names, name)
	h.out = append(h.out, out)
	h.in = append(h.in, in)
}

func (h *hostSet) len() int { return len(h.names) }

// est is the reference estimate from host i to host j.
func (h *hostSet) est(i, j int) float64 { return dot(h.out[i], h.in[j]) }

// estTol is the reference estimate from host i to host j with the
// tolerance a served answer must meet.
func (h *hostSet) estTol(i, j int) (est, tol float64) {
	var mag float64
	for k, a := range h.out[i] {
		p := a * h.in[j][k]
		est += p
		mag += math.Abs(p)
	}
	return est, relTol * mag
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// matches reports whether a served estimate equals the reference from
// host i to host j within tolerance.
func (h *hostSet) matches(got float64, i, j int) (bool, float64) {
	want, tol := h.estTol(i, j)
	return math.Abs(got-want) <= tol, want
}

// checkDist verifies a QueryDist answer for hosts i→j.
func (h *hostSet) checkDist(d wire.Distance, i, j int) error {
	if !d.Found {
		return fmt.Errorf("QueryDist %s→%s: not found", h.names[i], h.names[j])
	}
	if ok, want := h.matches(d.Millis, i, j); !ok {
		return fmt.Errorf("QueryDist %s→%s: got %v, want %v", h.names[i], h.names[j], d.Millis, want)
	}
	return nil
}

// checkBatch verifies every target of a QueryBatch answer from host src.
func (h *hostSet) checkBatch(d *wire.Distances, src int, targets []int) error {
	if !d.SrcFound {
		return fmt.Errorf("QueryBatch from %s: source not found", h.names[src])
	}
	if len(d.Results) != len(targets) {
		return fmt.Errorf("QueryBatch from %s: %d results for %d targets", h.names[src], len(d.Results), len(targets))
	}
	for k, t := range targets {
		r := d.Results[k]
		if !r.Found {
			return fmt.Errorf("QueryBatch %s→%s: not found", h.names[src], h.names[t])
		}
		if ok, want := h.matches(r.Millis, src, t); !ok {
			return fmt.Errorf("QueryBatch %s→%s: got %v, want %v", h.names[src], h.names[t], r.Millis, want)
		}
	}
	return nil
}

// checkKNN verifies the shape of a QueryKNN answer from host src: k
// entries of known hosts other than the source, ascending, each
// carrying the reference estimate. Whether they are the true nearest is
// checkKNNExact's job.
func (h *hostSet) checkKNN(n *wire.Neighbors, src, k int) error {
	if !n.SrcFound {
		return fmt.Errorf("QueryKNN from %s: source not found", h.names[src])
	}
	if len(n.Entries) != k {
		return fmt.Errorf("QueryKNN from %s: %d entries, want %d", h.names[src], len(n.Entries), k)
	}
	prev := math.Inf(-1)
	for _, e := range n.Entries {
		j, ok := h.index[e.Addr]
		if !ok {
			return fmt.Errorf("QueryKNN from %s: unknown host %q", h.names[src], e.Addr)
		}
		if j == src {
			return fmt.Errorf("QueryKNN from %s: answer includes the source", h.names[src])
		}
		if ok, want := h.matches(e.Millis, src, j); !ok {
			return fmt.Errorf("QueryKNN %s→%s: got %v, want %v", h.names[src], e.Addr, e.Millis, want)
		}
		if e.Millis < prev {
			return fmt.Errorf("QueryKNN from %s: entries not ascending", h.names[src])
		}
		prev = e.Millis
	}
	return nil
}

// checkKNNExact compares a k-NN answer with a brute-force scan over the
// reference vectors: the answer's i-th distance must equal the true i-th
// smallest within tolerance (ties may pick either host).
func (h *hostSet) checkKNNExact(millis []float64, src int) error {
	k := len(millis)
	if k == 0 {
		return fmt.Errorf("QueryKNN from %s: empty answer", h.names[src])
	}
	type cand struct{ est, tol float64 }
	best := make([]cand, 0, k+1)
	for j := range h.names {
		if j == src {
			continue
		}
		est, tol := h.estTol(src, j)
		if len(best) == k && est >= best[k-1].est {
			continue
		}
		pos := len(best)
		if len(best) < k {
			best = append(best, cand{})
		} else {
			pos = k - 1
		}
		for pos > 0 && best[pos-1].est > est {
			best[pos] = best[pos-1]
			pos--
		}
		best[pos] = cand{est, tol}
	}
	if len(best) < k {
		return fmt.Errorf("QueryKNN from %s: %d answers but only %d other hosts", h.names[src], k, len(best))
	}
	for i, b := range best {
		if math.Abs(millis[i]-b.est) > b.tol {
			return fmt.Errorf("QueryKNN from %s: rank %d is %v, brute force says %v", h.names[src], i+1, millis[i], b.est)
		}
	}
	return nil
}
