package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 2, 3, 4, 7, 8, 15, 16, 100, 255} {
		h.Observe(v)
	}
	cases := []struct {
		v, want int
	}{
		{1, 1},   // [1,1]
		{2, 2},   // [2,3]: 2,3
		{4, 2},   // [4,7]: 4,7
		{8, 2},   // [8,15]: 8,15
		{16, 1},  // [16,31]: 16
		{100, 1}, // [64,127]: 100
		{255, 1}, // [128,255]: 255
		{32, 0},  // empty bucket
	}
	bs := h.Buckets()
	total := 0
	for _, b := range bs {
		total += b.Count
	}
	for _, tc := range cases {
		got := 0
		for _, b := range bs {
			if b.Lo <= tc.v && tc.v <= b.Hi {
				got = b.Count
			}
		}
		if got != tc.want {
			t.Errorf("bucket of %d counts %d, want %d", tc.v, got, tc.want)
		}
	}
	if total != 10 {
		t.Errorf("buckets hold %d values, want 10", total)
	}
	if bs[0].Lo != 1 || bs[0].Hi != 1 || bs[1].Lo != 2 || bs[1].Hi != 3 {
		t.Errorf("bucket bounds wrong: %+v", bs[:2])
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	if bs := h.Buckets(); len(bs) != 0 {
		t.Errorf("values below 1 landed in buckets %+v", bs)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Observe(2)
	h.Observe(2)
	out := h.Render(10)
	if !strings.Contains(out, "[1,1]\t1") || !strings.Contains(out, "[2,3]\t2") {
		t.Errorf("Render output:\n%s", out)
	}
}

func TestPreservationCurve(t *testing.T) {
	baseline := []float64{0.75, 0.8, 0.85, 0.9, 0.95}
	variant := []float64{0.9, 0.95}
	ths := []float64{0.75, 0.9, 0.99}
	c := PreservationCurve(baseline, variant, ths)
	if len(c) != 3 {
		t.Fatalf("curve len = %d", len(c))
	}
	if math.Abs(c[0].Preserved-2.0/5.0) > 1e-12 {
		t.Errorf("preserved@0.75 = %v, want 0.4", c[0].Preserved)
	}
	if math.Abs(c[1].Preserved-1) > 1e-12 {
		t.Errorf("preserved@0.9 = %v, want 1", c[1].Preserved)
	}
	// baseline empty above 0.95 -> convention: preserved = 1
	if c[2].Preserved != 1 {
		t.Errorf("preserved@0.99 = %v, want 1", c[2].Preserved)
	}
}

func TestThresholds(t *testing.T) {
	ths := Thresholds(0.75, 1.0, 5)
	if len(ths) != 6 || ths[0] != 0.75 || ths[5] != 1.0 {
		t.Errorf("Thresholds = %v", ths)
	}
	if math.Abs(ths[1]-0.8) > 1e-12 {
		t.Errorf("ths[1] = %v", ths[1])
	}
	if got := Thresholds(0.5, 1, 0); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("degenerate thresholds = %v", got)
	}
}

func TestRenderCurves(t *testing.T) {
	ths := Thresholds(0.8, 1.0, 2)
	c1 := PreservationCurve([]float64{0.8, 0.9, 1.0}, []float64{0.9}, ths)
	c2 := PreservationCurve([]float64{0.8, 0.9, 1.0}, []float64{0.8, 0.9, 1.0}, ths)
	out := RenderCurves([]string{"small", "tree"}, [][]CurvePoint{c1, c2})
	if !strings.HasPrefix(out, "delta\tsmall\ttree") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines, got %d:\n%s", len(lines), out)
	}
}

// Property: the buckets hold every observation, and every bucket's range is
// well formed.
func TestHistogramProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Observe(1 + rng.Intn(1000))
		}
		sum := 0
		for _, b := range h.Buckets() {
			if b.Lo > b.Hi {
				return false
			}
			sum += b.Count
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: preservation is in [0,1] whenever variant ⊆ baseline, and the
// curve for variant == baseline is constantly 1.
func TestPreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		baseline := make([]float64, n)
		for i := range baseline {
			baseline[i] = 0.75 + 0.25*rng.Float64()
		}
		var variant []float64
		for _, v := range baseline {
			if rng.Intn(2) == 0 {
				variant = append(variant, v)
			}
		}
		ths := Thresholds(0.75, 1.0, 10)
		for _, p := range PreservationCurve(baseline, variant, ths) {
			if p.Preserved < 0 || p.Preserved > 1 {
				return false
			}
		}
		for _, p := range PreservationCurve(baseline, baseline, ths) {
			if p.Preserved != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
