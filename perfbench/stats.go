package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fastmm/internal/batch"
)

// summary describes one timed quantity by order statistics. Every timed
// metric of the benchmark is reported as a median with its quartiles; the
// tail is the highest percentile that still has at least minBeyond samples
// above it, so it never rests on a handful of outliers.
type summary struct {
	N       int
	Q1      float64
	Median  float64
	Q3      float64
	Tail    float64
	TailPct float64 // percentile of Tail, 0..100
}

// minBeyond is how many samples must lie beyond the reported tail.
const minBeyond = 10

// summarize computes the order statistics of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (its default "exclusive" method),
// whose middle cut is the true median: the mean of the two middle samples
// for an even count.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n}
	if n == 1 {
		out.Q1, out.Median, out.Q3 = s[0], s[0], s[0]
	} else {
		out.Q1, out.Median, out.Q3 = quartileCut(s, 1), quartileCut(s, 2), quartileCut(s, 3)
	}
	out.Tail, out.TailPct = tail(s)
	return out
}

// quartileCut is cut i (1..3) of statistics.quantiles(s, n=4,
// method="exclusive") on the sorted sample s (len ≥ 2).
func quartileCut(s []float64, i int) float64 {
	ld := len(s)
	m := ld + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// tail returns the highest-ranked sample of the sorted s that has at least
// minBeyond samples above it, with its percentile rank. With too few
// samples for any such rank it returns the maximum at percentile 100, and
// the caller's printed sample count shows why.
func tail(s []float64) (value, pct float64) {
	n := len(s)
	i := n - 1 - minBeyond
	if i < 0 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i) / float64(n-1)
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }

// histSamples expands a batch histogram into representative samples: each
// observation sits at its rank's position inside its power-of-two bucket,
// spread evenly between the bucket edges, so the order statistics of the
// expansion interpolate within buckets instead of snapping to their edges.
// The values are in milliseconds.
func histSamples(h batch.Histogram) []float64 {
	bounds := batch.HistogramBounds()
	out := make([]float64, 0, h.Count)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if i == len(bounds)-1 {
			hi = 2 * lo
		}
		for r := int64(0); r < c; r++ {
			d := lo + time.Duration(float64(hi-lo)*(float64(r)+0.5)/float64(c))
			out = append(out, float64(d)/1e6)
		}
	}
	return out
}

// eq3Flops is the paper's Equation (3) numerator for a P×Q×R product:
// 2PQR − PR, the classical flop count every algorithm is normalized onto.
func eq3Flops(p, q, r int) float64 {
	return 2*float64(p)*float64(q)*float64(r) - float64(p)*float64(r)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run in a fixed order, with a
// human-readable note per metric that is printed before the JSON result.
type report struct {
	names  []string
	values map[string]metric
	notes  map[string]string
}

func newReport() *report {
	return &report{values: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{Value: value, Unit: unit}
	r.notes[name] = note
}

// setTimed records a timed metric as its median and notes the quartiles
// and the sample count.
func (r *report) setTimed(name string, s summary, unit string) {
	r.set(name, s.Median, unit, fmt.Sprintf("median of %d, q1 %.6g, q3 %.6g", s.N, s.Q1, s.Q3))
}

// setTail records the tail of a timed sample with its percentile and count.
func (r *report) setTail(name string, s summary, unit string) {
	note := fmt.Sprintf("p%.1f of %d samples (the highest percentile with %d samples beyond it)", s.TailPct, s.N, minBeyond)
	if s.N <= minBeyond {
		note = fmt.Sprintf("maximum of %d samples: too few for %d samples beyond any percentile", s.N, minBeyond)
	}
	r.set(name, s.Tail, unit, note)
}
