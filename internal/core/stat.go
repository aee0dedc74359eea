package core

import (
	"fmt"
	"math"
)

// The small statistical helpers the experiment tables use: summaries,
// ratios, and log–log slope fits for estimating empirical growth
// exponents from (n, cost) series.

// Sum returns the sum of xs.
func Sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []int) int {
	m := 0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(Sum(xs)) / float64(len(xs))
}

// Point is one (N, Cost) measurement of a sweep.
type Point struct {
	N    int
	Cost float64
}

// LogLogSlope fits cost ≈ c·n^slope by least squares on (log n, log cost)
// and returns the slope — the empirical growth exponent. Points with
// non-positive coordinates are skipped; fewer than two usable points give
// slope 0.
func LogLogSlope(points []Point) float64 {
	var xs, ys []float64
	for _, p := range points {
		if p.N > 0 && p.Cost > 0 {
			xs = append(xs, math.Log(float64(p.N)))
			ys = append(ys, math.Log(p.Cost))
		}
	}
	if len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// Ratio formats a/b with two decimals, or "∞" when b is zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2f", a/b)
}
