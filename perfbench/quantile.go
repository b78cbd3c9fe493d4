package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a percentile with fewer samples past it is one or two outliers, not a tail.
const minBeyond = 10

// tailBeyond lists the tail percentiles the rule picks from, highest
// first, as the samples per thousand beyond each: p99.9, p99, p95, p90 and
// p75. Integers keep the count comparison exact.
var tailBeyond = []int{1, 10, 50, 100, 250}

// tailPercentile returns the highest candidate percentile that has at least
// minBeyond of n samples beyond it, or 50 (the median) when n is too small
// for any tail.
func tailPercentile(n int) float64 {
	for _, perMille := range tailBeyond {
		if n*perMille >= minBeyond*1000 {
			return float64(1000-perMille) / 10
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics (NaN for an empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail summarizes a latency sample by the tail rule: the chosen percentile,
// its value, and the sample count it rests on.
type tail struct {
	P     float64
	Value float64
	N     int
}

func tailOf(xs []float64) tail {
	p := tailPercentile(len(xs))
	return tail{P: p, Value: percentile(xs, p), N: len(xs)}
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of n=%d", t.P, t.N)
}
