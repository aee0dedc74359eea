package core

import (
	"math"
	"testing"
)

func TestSumMaxMean(t *testing.T) {
	xs := []int{3, 1, 4, 1, 5}
	if Sum(xs) != 14 {
		t.Errorf("Sum = %d", Sum(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %d", Max(xs))
	}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Sum(nil) != 0 || Max(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty-slice defaults wrong")
	}
	if Max([]int{-3, -7}) != -3 {
		t.Errorf("Max of negatives = %d", Max([]int{-3, -7}))
	}
}

func TestLogLogSlopeRecoversExponent(t *testing.T) {
	cases := []struct {
		exp  float64
		name string
	}{
		{1.0, "linear"},
		{2.0, "quadratic"},
		{1.5, "n^1.5"},
	}
	for _, c := range cases {
		var pts []Point
		for _, n := range []int{16, 32, 64, 128, 256, 512} {
			pts = append(pts, Point{N: n, Cost: 3 * math.Pow(float64(n), c.exp)})
		}
		if got := LogLogSlope(pts); math.Abs(got-c.exp) > 1e-9 {
			t.Errorf("%s: slope = %v, want %v", c.name, got, c.exp)
		}
	}
}

func TestLogLogSlopeIgnoresBadPoints(t *testing.T) {
	pts := []Point{{0, 10}, {10, 0}, {-5, 3}}
	if got := LogLogSlope(pts); got != 0 {
		t.Errorf("slope from unusable points = %v", got)
	}
	pts = append(pts, Point{10, 100}, Point{100, 10000})
	if got := LogLogSlope(pts); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("slope = %v, want 2", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != "∞" {
		t.Error("divide by zero not flagged")
	}
	if Ratio(3, 2) != "1.50" {
		t.Errorf("Ratio = %s", Ratio(3, 2))
	}
}
