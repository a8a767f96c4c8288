package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n        int
		want     float64
		q, value float64
	}{
		{1000, 0.9, 0.9, 900},   // plenty of samples: p90 as asked
		{1000, 0.99, 0.99, 990}, // exactly 10 beyond p99
		{200, 0.99, 0.95, 190},  // p99 has 2 beyond: lowered to p95
		{50, 0.9, 0.8, 40},      // p80 is the highest with 10 beyond
		{12, 0.9, 0.5, 6.5},     // too few for anything above the median
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), c.want)
		if got.N != c.n || got.Q != c.q || got.Value != c.value {
			t.Errorf("n=%d want p%v: got %+v, want q=%v value=%v", c.n, c.want*100, got, c.q, c.value)
		}
		if c.q > 0.5 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, got.Q*100)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}
