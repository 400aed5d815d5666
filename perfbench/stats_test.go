package main

import "testing"

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {100, 5}, {90, 4.6},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than 10 samples beyond it", tc.n, got)
		}
	}
}
