package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1,000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples and whether it is supported, i.e. whether at least minBeyond
// samples lie beyond it. It sorts samples in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	sort.Float64s(samples)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return samples[k], n-1-k >= minBeyond
}

// median returns the middle value of the samples (the mean of the two
// middle values for an even count), for run-level aggregates such as
// repeated set-up times where the sample count is small by design. It
// sorts samples in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func sum(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}
