package e2ebench

import (
	"cmp"
	"math"
	"slices"
)

// tailSupport is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two observations, so it
// is not reported as one.
const tailSupport = 10

// Tail returns the nearest-rank value at percentile p of xs, capped at
// the highest percentile that still has at least tailSupport samples
// beyond it, together with the percentile actually reported. With too
// few samples for any percentile to qualify it reports the median.
func Tail(xs []float64, p float64) (v, got float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if hi := n - 1 - tailSupport; i > hi {
		i = hi
	}
	if i < 0 {
		i = (n - 1) / 2
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// Median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0: a per-op figure over no ops is
// reported as absent work, not as NaN.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// statWindows is how many consecutive runs of samples a timed phase's
// figures are taken over: each figure is the median over the runs, so
// a burst of machine noise that covers a few of them moves it little.
const statWindows = 10

// samples are latencies with the clock reading at which each completed.
type samples struct {
	ms  []float64
	end []int64
}

func (s *samples) add(ms float64, end int64) {
	s.ms = append(s.ms, ms)
	s.end = append(s.end, end)
}

func (s *samples) merge(o samples) {
	s.ms = append(s.ms, o.ms...)
	s.end = append(s.end, o.end...)
}

// windowed orders the samples by completion, splits them into
// statWindows equal runs and returns the median over the runs of stat.
func (s samples) windowed(stat func([]float64) float64) float64 {
	n := len(s.ms)
	if n < statWindows {
		return stat(s.ms)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(s.end[a], s.end[b]) })
	ordered := make([]float64, n)
	for i, j := range idx {
		ordered[i] = s.ms[j]
	}
	per := make([]float64, statWindows)
	for w := range per {
		per[w] = stat(ordered[w*n/statWindows : (w+1)*n/statWindows])
	}
	return Median(per)
}

// windowedRate is the median over statWindows equal slices of
// [start, stop) of the events per second that completed in each.
func windowedRate(ends []int64, start, stop int64) float64 {
	span := stop - start
	if span <= 0 {
		return 0
	}
	counts := make([]float64, statWindows)
	for _, e := range ends {
		w := int((e - start) * statWindows / span)
		counts[min(max(w, 0), statWindows-1)]++
	}
	for w := range counts {
		counts[w] /= float64(span) / statWindows / 1e9
	}
	return Median(counts)
}

func p90(xs []float64) float64 {
	v, _ := Tail(xs, 90)
	return v
}
