package serve

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"bellflower/internal/pipeline"
)

// sigFloatCases are the values appendSigFloat must spell exactly as strconv
// does: the table's own, their neighbours one ulp away, both zeros, the
// infinities, NaN and the subnormal range.
func sigFloatCases() []float64 {
	var fs []float64
	for _, bits := range sigFloatBits {
		f := math.Float64frombits(bits)
		fs = append(fs, f, -f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)))
	}
	return append(fs,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0008000000000000),
		math.MaxFloat64, -math.MaxFloat64)
}

func checkSigFloat(t *testing.T, f float64) {
	t.Helper()
	got := string(appendSigFloat([]byte("x="), f))
	if want := "x=" + strconv.FormatFloat(f, 'g', -1, 64); got != want {
		t.Fatalf("appendSigFloat(%#x) = %q, strconv says %q", math.Float64bits(f), got, want)
	}
}

// appendSigFloat's table changes how a float is spelled, never what is
// spelled: every value reads as strconv's shortest 'g' form, and the floats
// of pipeline.DefaultOptions are read from the table.
func TestAppendSigFloatMatchesStrconv(t *testing.T) {
	for _, f := range sigFloatCases() {
		checkSigFloat(t, f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkSigFloat(t, math.Float64frombits(rng.Uint64()))
	}
	d := pipeline.DefaultOptions()
	for _, f := range []float64{d.Objective.Alpha, d.Objective.K, d.Threshold, d.MinSim, d.StructureWeight, 0, 1} {
		if !inSigFloats(f) {
			t.Errorf("%g is a default option but not in the table", f)
		}
	}
	if inSigFloats(math.Copysign(0, -1)) {
		t.Error("-0 matched the table: it would print as 0")
	}
}

func inSigFloats(f float64) bool {
	for _, bits := range sigFloatBits {
		if bits == math.Float64bits(f) {
			return true
		}
	}
	return false
}

func FuzzAppendSigFloat(f *testing.F) {
	for _, v := range sigFloatCases() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkSigFloat(t, math.Float64frombits(bits))
	})
}
