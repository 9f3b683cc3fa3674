package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"bellflower/internal/schema"
)

func specs(t *testing.T, name string, seed int64) []string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(w.requests))
	for i, r := range w.requests {
		out[i] = r.Spec
	}
	return out
}

func TestGeneratorDeterministicAndWellFormed(t *testing.T) {
	bounds := map[string][3]int{ // list length, kMin, kMax
		"cold-topn":      {coldDistinct, 3, 7},
		"cold-enumerate": {coldDistinct, 2, 4},
		"warm-batch":     {batchDistinct, 3, 7},
		"dist2-mixed":    {hotSet*hotSets + mixedCold, 3, 7},
	}
	for _, name := range workloadNames {
		a, b, other := specs(t, name, 42), specs(t, name, 42), specs(t, name, 43)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 42 and 43 gave the same request list", name)
		}
		want := bounds[name]
		if len(a) != want[0] {
			t.Errorf("%s: %d requests, want %d", name, len(a), want[0])
		}
		seen := make(map[string]bool)
		for _, spec := range a {
			if seen[spec] {
				t.Errorf("%s: duplicate spec %q", name, spec)
			}
			seen[spec] = true
			tree, err := schema.ParseSpec(spec)
			if err != nil {
				t.Errorf("%s: %q does not parse: %v", name, spec, err)
				continue
			}
			if tree.Len() < want[1] || tree.Len() > want[2] {
				t.Errorf("%s: %q has %d nodes, want %d..%d", name, spec, tree.Len(), want[1], want[2])
			}
			names := make(map[string]bool)
			for _, n := range tree.Nodes() {
				if names[n.Name] {
					t.Errorf("%s: %q repeats the name %q", name, spec, n.Name)
				}
				names[n.Name] = true
			}
		}
	}
}

func TestRequestBodyIsTheDaemonsJSON(t *testing.T) {
	var got struct {
		Personal string `json:"personal"`
		Options  struct {
			TopN     int  `json:"top_n"`
			Adaptive bool `json:"adaptive_top_n"`
		} `json:"options"`
	}
	r := request{Spec: "book(title,isbn@)", Options: optsTopN}
	if err := json.Unmarshal(r.body(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Personal != r.Spec || got.Options.TopN != topN || !got.Options.Adaptive {
		t.Errorf("body %s decoded to %+v", r.body(), got)
	}
	if o := r.pipelineOptions(); o.TopN != topN || !o.AdaptiveTopN {
		t.Errorf("in-process options %+v do not mirror %s", o, r.Options)
	}
	if o := (request{Options: optsEnumerate}).pipelineOptions(); o.TopN != topN || o.AdaptiveTopN {
		t.Errorf("in-process options %+v do not mirror %s", o, optsEnumerate)
	}
}

func TestMixedInterleaveIsThreeHotToOneCold(t *testing.T) {
	const n = 3 * mixedEpoch
	hot, cold := 0, 0
	for i := 0; i < n; i++ {
		idx := mixedIndex(i)
		if i%mixedPeriod == mixedPeriod-1 {
			if mixedIsHot(idx) || idx != hotSet*hotSets+cold {
				t.Fatalf("op %d: request %d, want the next cold request %d", i, idx, hotSet*hotSets+cold)
			}
			cold++
		} else {
			// Hot ops cycle the epoch's own hot set in order.
			set, inEpoch := i/mixedEpoch, hot%(mixedEpoch/mixedPeriod*(mixedPeriod-1))
			if want := set*hotSet + inEpoch%hotSet; idx != want {
				t.Fatalf("op %d: request %d, want hot request %d", i, idx, want)
			}
			hot++
		}
	}
	if hot != 3*cold {
		t.Errorf("%d hot and %d cold ops, want exactly 3:1", hot, cold)
	}
	// Hot sets and the cold list wrap around instead of running out.
	if got := mixedIndex(hotSets * mixedEpoch); got != 0 {
		t.Errorf("after the last hot set the first one returns; got request %d", got)
	}
	if got := mixedIndex(mixedPeriod*mixedCold + mixedPeriod - 1); got != hotSet*hotSets {
		t.Errorf("after the last cold request the first one returns; got request %d", got)
	}
}

func TestMixedHotRequestsAreMidSized(t *testing.T) {
	w, err := newWorkload("dist2-mixed", 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range w.requests {
		tree, err := schema.ParseSpec(r.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if mixedIsHot(i) && tree.Len() != hotSize {
			t.Fatalf("hot request %d has %d nodes, want %d", i, tree.Len(), hotSize)
		}
	}
	if len(w.warmup) != hotSet || len(w.traced) != tracedSlice {
		t.Errorf("%d warm-up ops and %d traced requests, want %d and %d", len(w.warmup), len(w.traced), hotSet, tracedSlice)
	}
}

func TestBatchOpsCoverTheListInBodiesOf64(t *testing.T) {
	w, err := newWorkload("warm-batch", 42)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[int]bool)
	for i := 0; i < batchDistinct/batchEntries; i++ {
		o := w.opAt(i)
		if len(o.reqs) != batchEntries || o.path != "/v1/match/batch" {
			t.Fatalf("op %d: %d entries to %s", i, len(o.reqs), o.path)
		}
		var body struct {
			Requests []json.RawMessage `json:"requests"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil || len(body.Requests) != batchEntries {
			t.Fatalf("op %d: body has %d entries, %v", i, len(body.Requests), err)
		}
		for _, r := range o.reqs {
			covered[r] = true
		}
	}
	if len(covered) != batchDistinct {
		t.Errorf("one pass covers %d requests, want %d", len(covered), batchDistinct)
	}
}

func TestPercentileAndSpread(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 9, 14, 10, 11, 12, 13}, 0.2608695652173913},
		{[]float64{3, 1, 2}, 1.0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50}, // overlaps a: 10..50 is covered once
		{ID: 4, Parent: 1, Name: "a", StartNS: 60, EndNS: 70},
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	agg := aggregate(spans)
	if a := agg["a"]; a.n != 2 || a.durNS != 30 || a.selfNS != 30 {
		t.Errorf("aggregate a = %+v", *a)
	}
}

func TestRecorderKeepsStartOrderAndParents(t *testing.T) {
	rec := newRecorder()
	root := rec.start(7, nil, "request")
	child := rec.start(7, root, "child")
	child.end(map[string]float64{"n": 3})
	root.end(nil)
	if len(rec.spans) != 2 {
		t.Fatalf("%d spans", len(rec.spans))
	}
	r, c := rec.spans[0], rec.spans[1]
	if r.Name != "request" || r.Parent != 0 || c.Parent != r.ID || c.Trace != 7 || c.Counts["n"] != 3 {
		t.Errorf("spans %+v %+v", r, c)
	}
	if c.StartNS < r.StartNS || c.EndNS > r.EndNS || c.EndNS < c.StartNS {
		t.Errorf("child %d..%d not inside parent %d..%d", c.StartNS, c.EndNS, r.StartNS, r.EndNS)
	}
}

func TestProcParsing(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := "4242 (bell (flower) srv) S 1 4242 4242 0 -1 4194560 5321 0 0 0 1234 567 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615\n"
	ticks, err := parseStatCPUTicks([]byte(stat))
	if err != nil || ticks != 1234+567 {
		t.Errorf("cpu ticks = %d, %v; want %d", ticks, err, 1234+567)
	}
	if _, err := parseStatCPUTicks([]byte("4242 (x) S 1 2 3")); err == nil {
		t.Error("a truncated stat line must not parse")
	}
	status := "Name:\tbellflower-serv\nVmPeak:\t 1300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99999 kB\n"
	kb, err := parseVmHWMKB([]byte(status))
	if err != nil || kb != 123456 {
		t.Errorf("VmHWM = %d, %v; want 123456", kb, err)
	}
	if _, err := parseVmHWMKB([]byte("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Error("a status file without VmHWM must not parse")
	}
}

func TestScanResponse(t *testing.T) {
	mapping := func(delta string) string {
		return `{"delta": ` + delta + `, "sim": 1, "pairs": [{"personal": "/a/delta", "repository": "/b/status"}]}`
	}
	single := func(deltas ...string) string {
		ms := make([]string, len(deltas))
		for i, d := range deltas {
			ms[i] = mapping(d)
		}
		return `{"mappings": [` + strings.Join(ms, ",") + `], "pipeline": {"match_ms": 0.5}}`
	}
	eleven := strings.Split(strings.Repeat("0.8 ", topN+1), " ")[:topN+1]
	for _, c := range []struct {
		name       string
		body       string
		batch      bool
		ok, failed int
	}{
		{"ranked", single("1", "0.93", "0.93", "0.8"), false, 1, 0},
		{"compact", `{"mappings":[{"delta":1},{"delta":0.5}]}`, false, 1, 0},
		{"empty", single(), false, 1, 0},
		{"unordered", single("0.8", "0.9"), false, 0, 1},
		{"over top-N", single(eleven...), false, 0, 1},
		{"incomplete", `{"mappings": [], "incomplete": true}`, false, 0, 1},
		{"batch", `{"results": [{"result": ` + single("1", "0.9") + `, "status": 200}, {"result": ` + single("0.95") + `, "status": 200}]}`, true, 2, 0},
		{"batch entry failed", `{"results": [{"result": ` + single("1") + `, "status": 200}, {"error": "boom", "status": 504}]}`, true, 1, 1},
		{"batch entry unordered", `{"results": [{"result": ` + single("0.8", "0.9") + `, "status": 200}, {"result": ` + single("1") + `, "status": 200}]}`, true, 1, 1},
	} {
		ok, failed := scanResponse([]byte(c.body), c.batch)
		if ok != c.ok || failed != c.failed {
			t.Errorf("%s: ok %d failed %d, want %d and %d", c.name, ok, failed, c.ok, c.failed)
		}
	}
}

// BENCHMARK.json names the workloads and metrics for the driver; the
// program prints them. The two lists must not drift apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []named  `json:"workloads"`
		EndToEnd  []named  `json:"end_to_end"`
		PerLayer  []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		return out
	}
	if got := names(doc.Workloads); !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("workloads %v, the program runs %v", got, workloadNames)
	}
	for _, w := range doc.Workloads {
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why %q, the program says %q", w.Name, w.Why, workloadWhy[w.Name])
		}
	}
	if got := names(doc.EndToEnd); !reflect.DeepEqual(got, endToEndOrder) {
		t.Errorf("end_to_end %v, the program prints %v", got, endToEndOrder)
	}
	var layers []string
	for _, pl := range perLayer {
		layers = append(layers, pl.name)
	}
	if got := names(doc.PerLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("per_layer %v, the program prints %v", got, layers)
	}
}
