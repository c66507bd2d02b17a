package main

import (
	"math"
	"sort"
)

// summary is a timing distribution as the benchmark reports it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Tail is the highest percentile with at least ten samples beyond it.
	Tail float64 `json:"tail"`
	N    int     `json:"n"`
}

// times scales a summary's values by k.
func (s summary) times(k float64) summary {
	s.Median, s.Q1, s.Q3, s.Tail = s.Median*k, s.Q1*k, s.Q3*k, s.Tail*k
	return s
}

func summarize(xs []float64) summary {
	s := summary{Median: median(xs), Tail: tail(xs), N: len(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is how the benchmark's spreads are judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail returns the value at the highest whole percentile with at least
// ten samples above it. Below twenty samples that percentile would lie
// under the median, so the median is returned instead.
func tail(xs []float64) float64 {
	n := len(xs)
	if n < 20 {
		return median(xs)
	}
	pct := math.Floor(100 * float64(n-10) / float64(n))
	idx := int(math.Ceil(pct/100*float64(n))) - 1
	return sorted(xs)[max(idx, 0)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
