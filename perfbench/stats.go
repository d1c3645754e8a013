package main

import (
	"math"
	"sort"

	"alock/internal/stats"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (method "exclusive"), so a spread
// printed here matches one computed over the printed values. It needs at
// least two values; with fewer it returns the single value (or 0) twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// noise figure the benchmark's bounds are compared against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileLadder is the set of percentiles a tail is reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest ladder percentile that has at least
// ten of n samples beyond it, or 0 when not even the median does: a tail
// percentile resting on fewer samples is one or two outliers, not a tail.
func highestPercentile(n int64) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// geomean is the geometric mean of xs, the average used for rates and
// latencies across a multi-config workload so that no single config's scale
// dominates. Non-positive values make it 0 (they cannot be averaged this
// way and mark a broken run).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// failShare is failed ÷ attempted, 0 when nothing was attempted.
func failShare(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// bucketBounds returns the [low, high) range of the stats.Hist bucket that
// holds v: exact below 16 ns, then 16 linear sub-buckets per power of two.
func bucketBounds(v int64) (low, high int64) {
	if v < 16 {
		return v, v + 1
	}
	exp := 63
	for v>>uint(exp) == 0 {
		exp--
	}
	width := int64(1) << uint(exp-4)
	low = v &^ (width - 1)
	return low, low + width
}

// histQuantile estimates quantile q of a latency distribution from its
// stats.Hist CDF, interpolating linearly inside the bucket the quantile
// falls in. stats.Hist.Quantile returns the bucket's lower edge, which moves
// in 6% steps; the interpolated value resolves smaller changes and is just
// as deterministic. The result is clamped to [min, max] of the summary.
func histQuantile(sum stats.Summary, cdf []stats.Point, q float64) float64 {
	if len(cdf) == 0 {
		return 0
	}
	prev := 0.0
	for i, pt := range cdf {
		if pt.F < q && i < len(cdf)-1 {
			prev = pt.F
			continue
		}
		low, high := bucketBounds(pt.ValueNS)
		if i == len(cdf)-1 {
			// The last CDF point carries the maximum, not a bucket edge.
			low, _ = bucketBounds(pt.ValueNS)
			high = pt.ValueNS
		}
		v := float64(low)
		if pt.F > prev {
			v += float64(high-low) * (q - prev) / (pt.F - prev)
		}
		return math.Min(math.Max(v, float64(sum.MinNS)), float64(sum.MaxNS))
	}
	return float64(sum.MaxNS)
}
