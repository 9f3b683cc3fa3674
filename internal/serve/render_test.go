package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"bellflower/internal/mapgen"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

// --- the reference: the match response as the daemon used to build it ---
//
// These are the wire structs and the renderReport that cmd/bellflower-server
// fed to encoding/json before AppendReportJSON replaced them. They define
// the response format; the tests below pin the append-based renderer to
// their output byte for byte.

type pairJSON struct {
	Personal   string `json:"personal"`
	Repository string `json:"repository"`
}

type mappingJSON struct {
	Delta   float64    `json:"delta"`
	Sim     float64    `json:"sim"`
	Path    float64    `json:"path"`
	Cluster int        `json:"cluster"`
	Pairs   []pairJSON `json:"pairs"`
}

type pipelineStatsJSON struct {
	Variant         string  `json:"variant"`
	MappingElements int     `json:"mapping_elements"`
	Clusters        int     `json:"clusters"`
	UsefulClusters  int     `json:"useful_clusters"`
	SearchSpace     float64 `json:"search_space"`
	PartialMappings int64   `json:"partial_mappings_generated"`
	MatchMS         float64 `json:"match_ms"`
	ClusterMS       float64 `json:"cluster_ms"`
	GenMS           float64 `json:"gen_ms"`
}

type matchResponseJSON struct {
	Mappings    []mappingJSON         `json:"mappings"`
	Partials    int                   `json:"partials,omitempty"`
	Pipeline    pipelineStatsJSON     `json:"pipeline"`
	Incomplete  bool                  `json:"incomplete,omitempty"`
	ShardErrors []pipeline.ShardError `json:"shard_errors,omitempty"`
	Trace       *trace.Summary        `json:"trace,omitempty"`
}

func renderReport(personal *schema.Tree, rep *pipeline.Report) matchResponseJSON {
	resp := matchResponseJSON{
		Mappings:   make([]mappingJSON, 0, len(rep.Mappings)),
		Partials:   len(rep.Partials),
		Incomplete: rep.Incomplete,
		Pipeline: pipelineStatsJSON{
			Variant:         rep.Variant.String(),
			MappingElements: rep.MappingElements,
			Clusters:        rep.Clusters,
			UsefulClusters:  rep.UsefulClusters,
			SearchSpace:     rep.Counters.SearchSpace,
			PartialMappings: rep.Counters.PartialMappings,
			MatchMS:         float64(rep.MatchTime) / float64(time.Millisecond),
			ClusterMS:       float64(rep.ClusterTime) / float64(time.Millisecond),
			GenMS:           float64(rep.GenTime) / float64(time.Millisecond),
		},
	}
	resp.ShardErrors = rep.ShardErrors
	nodes := personal.Nodes()
	for _, m := range rep.Mappings {
		mj := mappingJSON{
			Delta:   m.Score.Delta,
			Sim:     m.Score.Sim,
			Path:    m.Score.Path,
			Cluster: m.ClusterID,
			Pairs:   make([]pairJSON, 0, len(m.Images)),
		}
		for i, img := range m.Images {
			mj.Pairs = append(mj.Pairs, pairJSON{
				Personal:   nodes[i].PathString(),
				Repository: img.PathString(),
			})
		}
		resp.Mappings = append(resp.Mappings, mj)
	}
	return resp
}

// referenceJSON is the reflection encoder, without an indent, over the
// reference struct, the span tree set when the request asked for one.
func referenceJSON(t testing.TB, personal *schema.Tree, rep *pipeline.Report, sum *trace.Summary) []byte {
	t.Helper()
	resp := renderReport(personal, rep)
	resp.Trace = sum
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

// --- generated reports ---

var (
	hostileNames = []string{
		"book", "title", "a<b", "x>y", "r&d", `say"hi"`, `back\slash`, "line\u2028sep", "para\u2029sep",
		"naïve", "日本語", "tab\tbed", "nl\nname", "bell\x07", "del\x7f", "bad\xffutf8", "\b\f\r", "",
	}
	hostileFloats = []float64{
		0, math.Copysign(0, -1), 1, 0.5, 0.1, 0.30000000000000004, 1e-7, 9.999e-7, 1e-6, 1e20, 1e21, 1.5e300,
		5e-324, 2.2250738585072014e-308, -1.5, -1e-9, 123456789.125, math.MaxFloat64,
	}
	hostileDurations = []time.Duration{0, 1, 999, 100 * time.Nanosecond, 1500 * time.Microsecond, time.Hour, -time.Millisecond}
)

// reportGen draws everything a rendered report depends on from pools chosen
// to hit encoding/json's special cases.
type reportGen struct {
	rng *rand.Rand
}

func (g reportGen) name() string       { return hostileNames[g.rng.Intn(len(hostileNames))] }
func (g reportGen) float() float64     { return hostileFloats[g.rng.Intn(len(hostileFloats))] }
func (g reportGen) dur() time.Duration { return hostileDurations[g.rng.Intn(len(hostileDurations))] }

func (g reportGen) names(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = g.name()
	}
	return names
}

// buildTree hangs each name after the first under a random earlier node.
func buildTree(rng *rand.Rand, names []string) *schema.Tree {
	b := schema.NewBuilder("gen")
	nodes := []*schema.Node{b.Root(names[0])}
	for _, name := range names[1:] {
		nodes = append(nodes, b.Element(nodes[rng.Intn(len(nodes))], name))
	}
	return b.MustTree()
}

// report builds a personal schema and a report of nMappings mappings over a
// generated repository tree.
func (g reportGen) report(nMappings int) (*schema.Tree, *pipeline.Report) {
	personal := buildTree(g.rng, g.names(1+g.rng.Intn(5)))
	repoNodes := buildTree(g.rng, g.names(1+g.rng.Intn(12))).Nodes()
	rep := &pipeline.Report{
		Variant:         pipeline.Variant(g.rng.Intn(6)), // past the named ones too
		MappingElements: g.rng.Intn(1000),
		Clusters:        g.rng.Intn(50),
		UsefulClusters:  g.rng.Intn(50),
		MatchTime:       g.dur(),
		ClusterTime:     g.dur(),
		GenTime:         g.dur(),
	}
	rep.Counters.SearchSpace = g.float()
	rep.Counters.PartialMappings = g.rng.Int63() - g.rng.Int63()
	for i := 0; i < nMappings; i++ {
		m := mapgen.Mapping{
			Score:     objective.Score{Delta: g.float(), Sim: g.float(), Path: g.float()},
			ClusterID: g.rng.Intn(40) - 2,
		}
		for range personal.Nodes() {
			m.Images = append(m.Images, repoNodes[g.rng.Intn(len(repoNodes))])
		}
		rep.Mappings = append(rep.Mappings, m)
	}
	if g.rng.Intn(3) == 0 {
		rep.Partials = make([]mapgen.PartialMapping, 1+g.rng.Intn(4))
	}
	if g.rng.Intn(3) == 0 { // a Router partial-results merge
		rep.Incomplete = true
		for i := 0; i <= g.rng.Intn(3); i++ {
			rep.ShardErrors = append(rep.ShardErrors, pipeline.ShardError{Shard: i, Err: "shard down: " + g.name()})
		}
	}
	return personal, rep
}

func (g reportGen) summary() *trace.Summary {
	return &trace.Summary{
		TraceID: "00f1", Root: "serve.match", Start: time.Unix(1700000000, 42).UTC(),
		DurationMS: g.float(), Spans: 3,
		Tree: &trace.Node{Name: "serve.match", SpanID: "01", DurationMS: 1.25,
			Attrs: map[string]string{"hit": "true", "err": g.name()},
			Children: []*trace.Node{
				{Name: "cache.lookup", SpanID: "02", DurationMS: g.float()},
				{Name: "rpc", SpanID: "03", Remote: true, Children: []*trace.Node{{Name: "shard.match", SpanID: "04"}}},
			}},
	}
}

// Property: AppendReportJSON is byte-identical to the reflection encoder
// over the reference structs, and AppendTraceJSON to the same with the span
// tree set, for 0 / 1 / 10 mappings with names, scores and timings drawn
// from the encoder's special cases.
func TestAppendReportJSONMatchesEncodingJSON(t *testing.T) {
	g := reportGen{rand.New(rand.NewSource(20))}
	for round := 0; round < 300; round++ {
		personal, rep := g.report([]int{0, 1, 10}[round%3])
		want := referenceJSON(t, personal, rep, nil)
		// A dirty prefix proves the renderer appends and never looks back.
		got := AppendReportJSON([]byte("prefix"), personal, rep)
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("round %d: rendering differs from encoding/json\n got: %s\nwant: %s", round, got, want)
		}
		sum := g.summary()
		traced, err := AppendTraceJSON(nil, want, sum)
		if err != nil {
			t.Fatal(err)
		}
		if wantTraced := referenceJSON(t, personal, rep, sum); !bytes.Equal(traced, wantTraced) {
			t.Fatalf("round %d: traced rendering differs from encoding/json\n got: %s\nwant: %s", round, traced, wantTraced)
		}
	}
}

func TestAppendReportJSONNonFiniteIsNull(t *testing.T) {
	personal := schema.MustParseSpec("a")
	rep := &pipeline.Report{}
	rep.Counters.SearchSpace = math.Inf(1)
	got := AppendReportJSON(nil, personal, rep)
	var decoded struct {
		Pipeline struct {
			SearchSpace *float64 `json:"search_space"`
		} `json:"pipeline"`
	}
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("rendering with a non-finite float is not JSON: %v\n%s", err, got)
	}
	if decoded.Pipeline.SearchSpace != nil {
		t.Errorf("search_space = %v, want null", *decoded.Pipeline.SearchSpace)
	}
}

// FuzzRenderReport drives the same identity from fuzzed names, floats and
// durations; the seed corpus is the property test's pools.
func FuzzRenderReport(f *testing.F) {
	for i, name := range hostileNames {
		fl := hostileFloats[i%len(hostileFloats)]
		f.Add(name, fl, int64(hostileDurations[i%len(hostileDurations)]), uint8(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, name string, fl float64, dur int64, nMappings uint8, incomplete bool) {
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			t.Skip("the reference encoder rejects non-finite floats")
		}
		personal := buildTree(rand.New(rand.NewSource(1)), []string{name, "x", name + name})
		image := buildTree(rand.New(rand.NewSource(2)), []string{"repo", name, "leaf"}).Nodes()
		rep := &pipeline.Report{MatchTime: time.Duration(dur), GenTime: -time.Duration(dur), Incomplete: incomplete}
		rep.Counters.SearchSpace = fl
		for i := 0; i < int(nMappings%12); i++ {
			rep.Mappings = append(rep.Mappings, mapgen.Mapping{
				Score:     objective.Score{Delta: fl, Sim: -fl, Path: fl / 3},
				ClusterID: i,
				Images:    []*schema.Node{image[i%3], image[(i+1)%3], image[2]},
			})
		}
		if incomplete {
			rep.ShardErrors = []pipeline.ShardError{{Shard: int(nMappings), Err: name}}
		}
		if got, want := AppendReportJSON(nil, personal, rep), referenceJSON(t, personal, rep, nil); !bytes.Equal(got, want) {
			t.Fatalf("rendering differs from encoding/json\n got: %s\nwant: %s", got, want)
		}
	})
}
