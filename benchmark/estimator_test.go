package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]uint32, 100) // 1..100
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("no samples must be NaN, not a number that looks measured")
	}
}

// TestWindowMedianP99 builds two loaders whose sub-windows have known
// latencies and checks that lc_p99_us is the median of the sub-windows' own
// p99s — so that one sub-window with a stall does not move it — while
// lc_p50_us is the exact median of everything.
func TestWindowMedianP99(t *testing.T) {
	mk := func(stallIn int) *loader {
		l := &loader{}
		for w := 0; w < subWindows; w++ {
			for i := 1; i <= 100; i++ {
				v := uint32(i * 1000) // 1..100 µs
				if w == stallIn && i > 90 {
					v = 50_000_000 // a 50 ms host stall over a tenth of one sub-window
				}
				l.lat = append(l.lat, v)
			}
			l.winEnd[w] = len(l.lat)
		}
		return l
	}
	be := &loader{be: true, lat: []uint32{1, 2, 3}, payload: 3 << 10}
	be.winEnd = [subWindows]int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	win := aggregate([]*loader{mk(3), mk(-1), be}, 10)
	if win.lcOps != 2000 || win.beOps != 3 || win.minSub != 200 {
		t.Fatalf("counts: lc %d be %d min sub-window %d", win.lcOps, win.beOps, win.minSub)
	}
	if got := win.p99us(); got != 99 {
		t.Errorf("lc_p99_us = %v, want 99 (the stalled sub-window alone reads %v)", got, win.subP99[3]/1e3)
	}
	if win.subP99[3] != 50_000_000 {
		t.Errorf("the stalled sub-window's own p99 = %v, want the stall", win.subP99[3])
	}
	if got := win.p50us(); got != 50 {
		t.Errorf("lc_p50_us = %v, want 50", got)
	}
	if got := win.opsPerSec(); got != 200 {
		t.Errorf("ops_s = %v, want 200 (BE ops are not LC ops)", got)
	}
	if got := win.beKiBs(); got != 0.3 {
		t.Errorf("be KiB/s = %v, want 0.3", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{30, 10, 20}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
