// Package stats provides the small statistical utilities the experiment
// harness reports with: power-of-two histograms (the bucket scheme of the
// paper's Fig. 4) and preserved-mapping curves (Figs. 5 and 6).
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts values into power-of-two buckets [1,1], [2,3], [4,7],
// [8,15], ... exactly as the paper's Fig. 4 groups cluster sizes. Values
// below 1 fall in no bucket.
type Histogram struct {
	counts []int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe adds a value.
func (h *Histogram) Observe(v int) {
	if v < 1 {
		return
	}
	b := 0
	for x := v; x > 1; x >>= 1 {
		b++
	}
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
}

// Bucket describes one histogram bucket.
type Bucket struct {
	Lo, Hi int // inclusive value range [Lo, Hi]
	Count  int
}

// Buckets returns the non-empty prefix of buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for b, c := range h.counts {
		out = append(out, Bucket{Lo: 1 << b, Hi: 1<<(b+1) - 1, Count: c})
	}
	return out
}

// Render draws the histogram as rows of "[lo,hi] count ####" bars scaled to
// width characters, mirroring Fig. 4's presentation.
func (h *Histogram) Render(width int) string {
	bs := h.Buckets()
	max := 0
	for _, b := range bs {
		if b.Count > max {
			max = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bs {
		bar := 0
		if max > 0 {
			bar = b.Count * width / max
		}
		fmt.Fprintf(&sb, "[%d,%d]\t%d\t%s\n", b.Lo, b.Hi, b.Count, strings.Repeat("#", bar))
	}
	return sb.String()
}

// CurvePoint is one (threshold, fraction-preserved) sample of a
// preserved-mapping curve.
type CurvePoint struct {
	Threshold float64
	Preserved float64 // in [0,1]; 1 when the baseline preserves everything
}

// PreservationCurve computes, for each threshold δ in thresholds, the
// fraction |{v ∈ variant : v ≥ δ}| / |{b ∈ baseline : b ≥ δ}| — the
// percentage of preserved mappings of Figs. 5 and 6. A threshold at which
// the baseline finds no mappings yields Preserved = 1 (nothing to lose).
//
// The inputs are the similarity indexes (Δ values) of the mappings found by
// the exhaustive baseline and by the clustered variant.
func PreservationCurve(baseline, variant []float64, thresholds []float64) []CurvePoint {
	bs := append([]float64(nil), baseline...)
	vs := append([]float64(nil), variant...)
	sort.Float64s(bs)
	sort.Float64s(vs)
	out := make([]CurvePoint, 0, len(thresholds))
	for _, th := range thresholds {
		nb := countAtLeast(bs, th)
		nv := countAtLeast(vs, th)
		p := 1.0
		if nb > 0 {
			p = float64(nv) / float64(nb)
		}
		out = append(out, CurvePoint{Threshold: th, Preserved: p})
	}
	return out
}

// countAtLeast returns the number of sorted values >= th.
func countAtLeast(sorted []float64, th float64) int {
	i := sort.SearchFloat64s(sorted, th)
	return len(sorted) - i
}

// Thresholds returns n+1 evenly spaced values from lo to hi inclusive —
// the δ axis of Figs. 5 and 6 (0.75 … 1.0).
func Thresholds(lo, hi float64, n int) []float64 {
	if n < 1 {
		return []float64{lo}
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}

// RenderCurves renders one or more labelled curves sampled at the same
// thresholds as an aligned text table (one row per threshold).
func RenderCurves(labels []string, curves [][]CurvePoint) string {
	if len(labels) != len(curves) {
		panic("stats: labels/curves length mismatch")
	}
	var sb strings.Builder
	sb.WriteString("delta")
	for _, l := range labels {
		fmt.Fprintf(&sb, "\t%s", l)
	}
	sb.WriteString("\n")
	if len(curves) == 0 || len(curves[0]) == 0 {
		return sb.String()
	}
	for i := range curves[0] {
		fmt.Fprintf(&sb, "%.3f", curves[0][i].Threshold)
		for _, c := range curves {
			fmt.Fprintf(&sb, "\t%.3f", c[i].Preserved)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
