package serve

import (
	"fmt"
	"testing"
	"unsafe"

	"bellflower/internal/mapgen"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// The governor's size estimators are heuristics: dominant slice-growth
// terms plus flat overhead, with pointer-shared repository nodes
// deliberately excluded. This file calibrates them against an
// unsafe.Sizeof sweep of the real structures — the measured resident bytes
// of exactly what the estimator claims to cover — so silent drift (a new
// heavy Report field, a grown Mapping struct) fails loudly instead of
// quietly skewing every cache-byte account.

// calibrationBand is the accepted estimate/measured ratio. The estimators
// round structure overheads to flat constants, so they are not exact; a
// [1/3, 3] band catches order-of-magnitude drift while tolerating the
// documented flatness.
const (
	calibrationLo = 1.0 / 3
	calibrationHi = 3.0
)

func checkBand(t *testing.T, what string, estimate, measured int64) {
	t.Helper()
	if measured <= 0 {
		t.Fatalf("%s: measured %d bytes", what, measured)
	}
	ratio := float64(estimate) / float64(measured)
	if ratio < calibrationLo || ratio > calibrationHi {
		t.Errorf("%s: estimate %d vs measured %d (ratio %.2f outside [%.2f, %.2f]) — recalibrate the estimator in governor.go",
			what, estimate, measured, ratio, calibrationLo, calibrationHi)
	}
}

// measuredReportBytes sweeps the report's resident memory with
// unsafe.Sizeof: struct sizes plus every owned slice's backing array.
// Shared *schema.Node targets are excluded, mirroring the estimator's
// contract (the repository is not governed memory).
func measuredReportBytes(rep *pipeline.Report) int64 {
	b := int64(unsafe.Sizeof(*rep))
	b += int64(cap(rep.ClusterSizes)) * int64(unsafe.Sizeof(int(0)))
	b += int64(cap(rep.Mappings)) * int64(unsafe.Sizeof(mapgen.Mapping{}))
	for i := range rep.Mappings {
		b += int64(cap(rep.Mappings[i].Images)) * ptrSize
		b += int64(cap(rep.Mappings[i].Sims)) * 8
	}
	b += int64(cap(rep.Partials)) * int64(unsafe.Sizeof(mapgen.PartialMapping{}))
	for i := range rep.Partials {
		b += int64(cap(rep.Partials[i].Images)) * ptrSize
		b += int64(cap(rep.Partials[i].Sims)) * 8
	}
	b += int64(cap(rep.ShardErrors)) * int64(unsafe.Sizeof(pipeline.ShardError{}))
	for i := range rep.ShardErrors {
		b += int64(len(rep.ShardErrors[i].Err))
	}
	return b
}

const ptrSize = int64(unsafe.Sizeof((*schema.Node)(nil)))

// TestGovernorEstimatorCalibration sweeps synthetic shapes — mapping
// counts × widths — and real pipeline output, asserting the report
// estimator stays within the calibration band of its unsafe.Sizeof
// measurement.
func TestGovernorEstimatorCalibration(t *testing.T) {
	// Reports: synthetic sweep over the dominant growth axes.
	for _, nMappings := range []int{0, 1, 16, 256} {
		for _, width := range []int{1, 3, 8} {
			rep := &pipeline.Report{ClusterSizes: make([]int, nMappings/4)}
			for i := 0; i < nMappings; i++ {
				rep.Mappings = append(rep.Mappings, mappingOfWidth(width))
			}
			if nMappings > 0 {
				rep.ShardErrors = []pipeline.ShardError{{Shard: 1, Err: "shard 1 unreachable"}}
			}
			checkBand(t, fmt.Sprintf("reportBytes(mappings=%d,width=%d)", nMappings, width),
				reportBytes(rep), measuredReportBytes(rep))
		}
	}

	// Real pipeline output at several scales, so the sweep covers realistic
	// report shapes, not just synthetic ones.
	for _, nodes := range []int{200, 600} {
		repo := syntheticRepo(t, nodes, int64(nodes))
		p := schema.MustParseSpec("address(name,email)")
		runner := pipeline.NewRunner(repo)
		opts := pipeline.DefaultOptions()
		opts.MinSim = 0.3
		opts.Threshold = 0.5
		rep, err := runner.Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkBand(t, fmt.Sprintf("reportBytes(real,nodes=%d)", nodes),
			reportBytes(rep), measuredReportBytes(rep))
	}
}

// TestGovernorEstimatorMarginalCost pins the per-entry growth slope: the
// marginal estimate of one more mapping must track the measured marginal
// cost, so a budget sized in MiB admits roughly the right entry COUNT even
// when flat overheads cancel out.
func TestGovernorEstimatorMarginalCost(t *testing.T) {
	small := &pipeline.Report{}
	big := &pipeline.Report{}
	const n, width = 128, 4
	for i := 0; i < n; i++ {
		big.Mappings = append(big.Mappings, mappingOfWidth(width))
	}
	estMarginal := float64(reportBytes(big)-reportBytes(small)) / n
	measMarginal := float64(measuredReportBytes(big)-measuredReportBytes(small)) / n
	ratio := estMarginal / measMarginal
	if ratio < calibrationLo || ratio > calibrationHi {
		t.Errorf("marginal mapping cost: estimate %.1f vs measured %.1f B/mapping (ratio %.2f)",
			estMarginal, measMarginal, ratio)
	}
}
