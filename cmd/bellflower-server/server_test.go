package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bellflower"
)

func newQuietLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

func testRepo3() *bellflower.Repository {
	repo := bellflower.NewRepository()
	for _, spec := range []string{
		"lib(address,book(authorName,data(title),shelf))",
		"store(book(title,author,isbn@),order(id,customer(name,email)))",
		"catalog(item(name,price),publisher(name,address))",
	} {
		repo.MustAdd(bellflower.MustParseSchema(spec))
	}
	return repo
}

// testBookRepo3 is testRepo3 with a complete match for book(title,author)
// in each of its trees: on any partition every shard holds a useful cluster
// of that request, so the router asks every shard. Tests that count
// per-shard traffic use it.
func testBookRepo3() *bellflower.Repository {
	repo := bellflower.NewRepository()
	for _, spec := range []string{
		"lib(address,book(author,data(title),shelf))",
		"store(book(title,author,isbn@),order(id,customer(name,email)))",
		"catalog(book(title,author),publisher(name,address))",
	} {
		repo.MustAdd(bellflower.MustParseSchema(spec))
	}
	return repo
}

func testService(t *testing.T, cfg bellflower.ServiceConfig) (*server, *httptest.Server) {
	return testShardedService(t, cfg, 1)
}

func testShardedService(t *testing.T, cfg bellflower.ServiceConfig, shards int) (*server, *httptest.Server) {
	t.Helper()
	return testShardedServiceOver(t, testRepo3(), cfg, shards)
}

func testShardedServiceOver(t *testing.T, repo *bellflower.Repository, cfg bellflower.ServiceConfig, shards int) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(repo, "test", cfg, shards, bellflower.PartitionClustered, t.TempDir(), newQuietLogger())
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		srv.closeNow()
	})
	return srv, ts
}

// testDistributedServer serves a router over shard daemons of testRepo3
// running in this process, and returns the daemons so a test can take one
// down.
func testDistributedServer(t *testing.T, cfg bellflower.ServiceConfig, shards int) (*httptest.Server, []*httptest.Server) {
	t.Helper()
	var addrs []string
	var daemons []*httptest.Server
	for i := 0; i < shards; i++ {
		host, err := bellflower.NewShardHost(testRepo3(), i, shards, bellflower.ServiceConfig{Workers: 1}, bellflower.PartitionClustered)
		if err != nil {
			t.Fatal(err)
		}
		d := httptest.NewServer(shardRoutes(host, nil, newQuietLogger()))
		t.Cleanup(func() {
			d.Close()
			host.Close()
		})
		addrs = append(addrs, d.URL)
		daemons = append(daemons, d)
	}
	repo := testRepo3()
	backend, err := bellflower.NewDistributedService(repo, addrs, cfg, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	srv := newRemoteServer(backend, repo, "test", cfg.CacheSize >= 0, newQuietLogger())
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		srv.closeNow()
	})
	return ts, daemons
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHandleMatchTable(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{MaxSchemaNodes: 8})

	tests := []struct {
		name       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{
			name:       "valid match",
			body:       `{"personal":"book(title,author)","options":{"delta":0.5}}`,
			wantStatus: http.StatusOK,
			wantInBody: `"mappings"`,
		},
		{
			name:       "deprecated adaptive_top_n still parses",
			body:       `{"personal":"book(title,author)","options":{"delta":0.5,"top_n":2,"adaptive_top_n":true}}`,
			wantStatus: http.StatusOK,
			wantInBody: `"mappings"`,
		},
		{
			name:       "bad json",
			body:       `{"personal":`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "bad request body",
		},
		{
			name:       "unknown field",
			body:       `{"personal":"a(b)","nonsense":1}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "bad request body",
		},
		{
			name:       "retired parallelism key",
			body:       `{"personal":"book(title,author)","options":{"parallelism":4}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: `unknown field \"parallelism\"`,
		},
		{
			name:       "bad spec",
			body:       `{"personal":"book(title,"}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "error",
		},
		{
			name:       "oversized schema",
			body:       `{"personal":"a(b,c,d,e,f,g,h,i,j,k,l)"}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantInBody: "too large",
		},
		{
			name:       "bad variant",
			body:       `{"personal":"a(b)","options":{"variant":"gigantic"}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown variant",
		},
		{
			name:       "bad matcher",
			body:       `{"personal":"a(b)","options":{"matcher":"psychic"}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown matcher",
		},
		{
			name:       "bad threshold",
			body:       `{"personal":"a(b)","options":{"delta":1.5}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "threshold",
		},
		{
			name:       "structure weight above 1",
			body:       `{"personal":"book(title,author)","options":{"structure":"path","structure_weight":2}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "structure_weight",
		},
		{
			name:       "negative structure weight",
			body:       `{"personal":"book(title,author)","options":{"structure":"path","structure_weight":-0.5}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "structure_weight",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/match", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d (body: %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if !strings.Contains(string(body), tc.wantInBody) {
				t.Errorf("body %q does not contain %q", body, tc.wantInBody)
			}
		})
	}

	t.Run("get rejected", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/match")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestOversizedSchemaWithLimitDisabledIs413: -max-schema-nodes -1 turns the
// service guard off; a 65-node schema then reaches the pipeline's own
// bound, which must answer 413 like the guard would — it used to panic in a
// worker goroutine and end the process.
func TestOversizedSchemaWithLimitDisabledIs413(t *testing.T) {
	for _, shards := range []int{1, 2} {
		_, ts := testShardedService(t, bellflower.ServiceConfig{MaxSchemaNodes: -1}, shards)
		kids := make([]string, 64)
		for i := range kids {
			kids[i] = fmt.Sprintf("title%d", i)
		}
		body := fmt.Sprintf(`{"personal":"book(%s)"}`, strings.Join(kids, ","))
		resp, data := postJSON(t, ts.URL+"/v1/match", body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "too large") {
			t.Errorf("shards=%d: 65-node schema: status %d body %s, want 413 too large", shards, resp.StatusCode, data)
		}
		resp, data = postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("shards=%d: daemon did not survive: status %d body %s", shards, resp.StatusCode, data)
		}
	}
}

func TestHandleMatchBadOptionsSurfaceAs400(t *testing.T) {
	// Validation errors from deep in the pipeline must not become 500s.
	_, ts := testService(t, bellflower.ServiceConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/match", `{"personal":"a(b)","options":{"alpha":7}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 (body: %s)", resp.StatusCode, body)
	}
}

// TestMatchOptionsTopNBound: a request without top_n, or with 0, asks for
// the defaultTopN best mappings; a negative top_n or one above maxTopN is a
// 400 that names the bound.
func TestMatchOptionsTopNBound(t *testing.T) {
	for _, tc := range []struct {
		options string // the "options" object; empty sends none
		want    int    // the TopN built; 0 expects an error
	}{
		{"", defaultTopN},
		{`{"delta":0.5}`, defaultTopN},
		{`{"top_n":0}`, defaultTopN},
		{`{"top_n":3}`, 3},
		{`{"top_n":1000}`, maxTopN},
		{`{"top_n":-1}`, 0},
		{`{"top_n":1001}`, 0},
	} {
		var o *matchOptionsJSON
		if tc.options != "" {
			o = new(matchOptionsJSON)
			if err := json.Unmarshal([]byte(tc.options), o); err != nil {
				t.Fatal(err)
			}
		}
		opts, err := o.build()
		switch {
		case tc.want == 0 && (err == nil || !strings.Contains(err.Error(), "1000")):
			t.Errorf("options %s: err %v, want one naming the bound 1000", tc.options, err)
		case tc.want != 0 && (err != nil || opts.TopN != tc.want):
			t.Errorf("options %s: TopN %d, err %v; want %d", tc.options, opts.TopN, err, tc.want)
		}
	}

	_, ts := testService(t, bellflower.ServiceConfig{})
	for _, body := range []string{
		`{"personal":"book(title,author)","options":{"top_n":-1}}`,
		`{"personal":"book(title,author)","options":{"top_n":1001}}`,
	} {
		if resp, data := postJSON(t, ts.URL+"/v1/match", body); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "1000") {
			t.Errorf("%s: status %d (%s), want 400 naming the bound", body, resp.StatusCode, data)
		}
	}
}

// TestMatchWithoutTopNIsBounded: a /v1/match body without top_n, and a
// batch entry without one, return the defaultTopN best mappings — the head
// of what a larger top_n returns — not every mapping above δ.
func TestMatchWithoutTopNIsBounded(t *testing.T) {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes, cfg.Seed = 800, 3
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(repo, "synthetic", bellflower.ServiceConfig{}, 1, bellflower.PartitionClustered, "", newQuietLogger())
	ts := httptest.NewServer(srv.routes())
	defer func() {
		ts.Close()
		srv.closeNow()
	}()
	type mappingsJSON struct {
		Mappings []json.RawMessage `json:"mappings"`
	}
	match := func(options string) []json.RawMessage {
		resp, data := postJSON(t, ts.URL+"/v1/match", `{"personal":"address(name,email)","options":`+options+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options %s: status %d (%s)", options, resp.StatusCode, data)
		}
		var out mappingsJSON
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out.Mappings
	}
	all := match(`{"delta":0.3,"top_n":1000}`)
	if len(all) <= defaultTopN {
		t.Fatalf("fixture has %d mappings above δ, want more than %d", len(all), defaultTopN)
	}
	got := match(`{"delta":0.3}`)
	if len(got) != defaultTopN {
		t.Fatalf("no top_n: %d mappings, want %d", len(got), defaultTopN)
	}
	for i := range got {
		if !bytes.Equal(got[i], all[i]) {
			t.Fatalf("no top_n: mapping %d is %s, want %s", i, got[i], all[i])
		}
	}

	resp, data := postJSON(t, ts.URL+"/v1/match/batch", `{"requests":[{"personal":"address(name,email)","options":{"delta":0.3}}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", resp.StatusCode, data)
	}
	var batch struct {
		Results []struct {
			Result mappingsJSON `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || len(batch.Results[0].Result.Mappings) != defaultTopN {
		t.Errorf("batch entry without top_n: %+v, want %d mappings", batch.Results, defaultTopN)
	}
}

// blockingMatcher holds the run that calls it until release is closed,
// signalling started on its first call: a request that occupies a worker
// for exactly as long as a test needs.
type blockingMatcher struct {
	bellflower.ElementMatcher
	once             sync.Once
	started, release chan struct{}
}

func (m *blockingMatcher) Similarity(p, r *bellflower.Node) float64 {
	m.once.Do(func() { close(m.started) })
	<-m.release
	return m.ElementMatcher.Similarity(p, r)
}

// TestDeadlineExceededReturns504: a request whose deadline expires before
// its run finishes is answered 504. The single worker is held by another
// run for the whole test, so the 1 ms request always expires in the queue.
func TestDeadlineExceededReturns504(t *testing.T) {
	srv, ts := testService(t, bellflower.ServiceConfig{Workers: 1})
	block := &blockingMatcher{
		ElementMatcher: bellflower.NewNameMatcher(false),
		started:        make(chan struct{}),
		release:        make(chan struct{}),
	}
	opts := bellflower.DefaultOptions()
	opts.Matcher = block
	held := make(chan error, 1)
	go func() {
		_, err := srv.cur.backend.Match(context.Background(), bellflower.MustParseSchema("address(name,email)"), opts)
		held <- err
	}()
	<-block.started

	resp, body := postJSON(t, ts.URL+"/v1/match",
		`{"personal":"book(title,author,publisher(name,address),isbn)","options":{"top_n":1000,"timeout_ms":1}}`)
	close(block.release)
	if err := <-held; err != nil {
		t.Fatalf("the request holding the worker failed: %v", err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("body %q should mention the deadline", body)
	}
}

func TestCacheHitPathAndStats(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})

	const body = `{"personal":"book(title,author)","options":{"delta":0.5}}`
	var first []byte
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/match", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, data)
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Errorf("request %d: cached response differs from first", i)
		}
	}

	resp, data := postJSON(t, ts.URL+"/v1/stats", "")
	_ = resp
	var stats bellflower.ServiceStats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats decode: %v (%s)", err, data)
	}
	if stats.CacheHits != 2 || stats.CacheMisses != 1 || stats.Requests != 3 {
		t.Errorf("hits/misses/requests = %d/%d/%d, want 2/1/3 after three identical requests",
			stats.CacheHits, stats.CacheMisses, stats.Requests)
	}
	if stats.CacheBytes <= int64(len(first)) {
		t.Errorf("cache_bytes = %d does not cover the %d-byte rendering it serves", stats.CacheBytes, len(first))
	}
	if stats.PipelineRuns != 1 {
		t.Errorf("pipeline runs = %d, want 1", stats.PipelineRuns)
	}
	if stats.Latency.Count < 3 {
		t.Errorf("latency observations = %d, want >= 3", stats.Latency.Count)
	}
}

func TestConcurrentMatches(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{Workers: 4})

	specs := []string{
		"book(title,author)",
		"customer(name,email)",
		"item(name,price)",
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf(`{"personal":%q,"options":{"delta":0.5}}`, specs[(g+i)%len(specs)])
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHandleMatchBatch(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})

	body := `{"requests":[
		{"personal":"book(title,author)","options":{"delta":0.5}},
		{"personal":"not a spec ((","options":{}},
		{"personal":"customer(name,email)","options":{"delta":0.5}}
	]}`
	resp, data := postJSON(t, ts.URL+"/v1/match/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			Result map[string]any `json:"result"`
			Error  string         `json:"error"`
			Status int            `json:"status"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Status != http.StatusOK || out.Results[0].Result == nil {
		t.Errorf("entry 0: status %d, result %v", out.Results[0].Status, out.Results[0].Result)
	}
	if out.Results[1].Status != http.StatusBadRequest || out.Results[1].Error == "" {
		t.Errorf("entry 1 should fail parse: status %d", out.Results[1].Status)
	}
	if out.Results[2].Status != http.StatusOK {
		t.Errorf("entry 2: status %d", out.Results[2].Status)
	}

	// The same batch again is two cache hits and the identical bytes: no
	// pipeline run, no re-rendering drift.
	var before, after bellflower.ServiceStats
	getJSON(t, ts.URL+"/v1/stats", &before)
	_, again := postJSON(t, ts.URL+"/v1/match/batch", body)
	getJSON(t, ts.URL+"/v1/stats", &after)
	if !bytes.Equal(again, data) {
		t.Error("the repeated batch's body differs from the first")
	}
	if after.CacheHits-before.CacheHits != 2 || after.PipelineRuns != before.PipelineRuns || after.Requests-before.Requests != 2 {
		t.Errorf("repeated batch: +%d hits, +%d runs, +%d requests; want +2, +0, +2",
			after.CacheHits-before.CacheHits, after.PipelineRuns-before.PipelineRuns, after.Requests-before.Requests)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/match/batch", `{"requests":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}

	var entries []string
	for i := 0; i < 257; i++ {
		entries = append(entries, `{"personal":"a(b)"}`)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/match/batch", `{"requests":[`+strings.Join(entries, ",")+`]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("257-entry batch: status %d, want 413", resp.StatusCode)
	}
}

func TestHandleRewrite(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})

	body := `{"personal":"book(title,author)","query":"/book/title","options":{"delta":0.5}}`
	resp, data := postJSON(t, ts.URL+"/v1/rewrite", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, data)
	}
	var out struct {
		Rewritten string  `json:"rewritten"`
		Delta     float64 `json:"delta"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rewritten == "" || out.Rewritten[0] != '/' {
		t.Errorf("rewritten = %q, want a repository XPath", out.Rewritten)
	}
	if out.Delta <= 0 {
		t.Errorf("delta = %v, want > 0", out.Delta)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/rewrite",
		`{"personal":"book(title,author)","query":"/book/title","mapping_rank":999,"options":{"delta":0.5}}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range rank: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/rewrite", `{"personal":"book(title,author)"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query: status %d, want 400", resp.StatusCode)
	}
}

func TestHandleRepository(t *testing.T) {
	srv, ts := testService(t, bellflower.ServiceConfig{})

	resp, data := postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup match: %d (%s)", resp.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/v1/repository")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Source string `json:"source"`
		Trees  int    `json:"trees"`
		Nodes  int    `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Trees != 3 || info.Nodes == 0 || info.Source != "test" {
		t.Errorf("repository info = %+v", info)
	}

	// Save the current repository, swap to a synthetic one, then load the
	// save back: a full round trip through all three actions. Paths are
	// relative to the server's data directory.
	resp, data = postJSON(t, ts.URL+"/v1/repository", `{"action":"save","path":"repo.txt"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save: %d (%s)", resp.StatusCode, data)
	}
	if _, err := os.Stat(filepath.Join(srv.dataDir, "repo.txt")); err != nil {
		t.Fatalf("saved file: %v", err)
	}

	resp, data = postJSON(t, ts.URL+"/v1/repository", `{"action":"synthetic","nodes":300,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthetic: %d (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes < 200 || info.Trees == 3 {
		t.Errorf("synthetic swap not visible: %+v", info)
	}
	// The new service starts with fresh stats.
	waitFor(t, func() bool {
		_, data := postJSON(t, ts.URL+"/v1/stats", "")
		var stats bellflower.ServiceStats
		return json.Unmarshal(data, &stats) == nil && stats.PipelineRuns == 0
	})

	resp, data = postJSON(t, ts.URL+"/v1/repository", `{"action":"load","path":"repo.txt"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Trees != 3 {
		t.Errorf("loaded repository has %d trees, want 3", info.Trees)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/repository", `{"action":"explode"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown action: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/repository", `{"action":"load"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("load without path: status %d, want 400", resp.StatusCode)
	}
}

func TestRepositoryPathSandbox(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})

	// Absolute and escaping paths must be refused before touching the
	// filesystem.
	for _, path := range []string{"/etc/passwd", "../outside.txt", "a/../../outside.txt"} {
		resp, body := postJSON(t, ts.URL+"/v1/repository", fmt.Sprintf(`{"action":"load","path":%q}`, path))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("load %q: status %d, want 400 (%s)", path, resp.StatusCode, body)
		}
		resp, _ = postJSON(t, ts.URL+"/v1/repository", fmt.Sprintf(`{"action":"save","path":%q}`, path))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("save %q: status %d, want 400", path, resp.StatusCode)
		}
	}

	// Absurd synthetic sizes are refused before generation.
	resp, body := postJSON(t, ts.URL+"/v1/repository", `{"action":"synthetic","nodes":1000000000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized synthetic: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// With no data directory configured, every mutating action is off.
	srv2 := newServer(testRepo3(), "test", bellflower.ServiceConfig{}, 1, bellflower.PartitionClustered, "", newQuietLogger())
	ts2 := httptest.NewServer(srv2.routes())
	defer func() {
		ts2.Close()
		srv2.closeNow()
	}()
	for _, action := range []string{`{"action":"save","path":"repo.txt"}`, `{"action":"synthetic","nodes":300}`} {
		resp, body := postJSON(t, ts2.URL+"/v1/repository", action)
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s without -data-dir: status %d, want 403 (%s)", action, resp.StatusCode, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})
	huge := `{"personal":"` + strings.Repeat("x", defaultMaxBody) + `"}`
	resp, body := postJSON(t, ts.URL+"/v1/match", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(string(body), "limit") {
		t.Errorf("413 body %q does not name the limit", body)
	}

	// -max-body-bytes re-sizes the cap; under it, requests still serve.
	srv2, ts2 := testService(t, bellflower.ServiceConfig{})
	srv2.setMaxBody(256)
	resp, _ = postJSON(t, ts2.URL+"/v1/match", `{"personal":"`+strings.Repeat("x", 300)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("300-byte body over a 256-byte cap: status %d, want 413", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts2.URL+"/v1/match", `{"personal":"book(title,author)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body under the shrunk cap: status %d, want 200", resp.StatusCode)
	}
	if srv2.setMaxBody(0); srv2.maxBody != 256 {
		t.Error("setMaxBody(0) must keep the previous cap")
	}
}

// TestHotReloadDrainsInFlight pins down the drain guarantee of POST
// /v1/repository: requests in flight against the old repository finish
// against it (zero cancellations), the old backend closes only after its
// last request releases it, and requests arriving after the swap serve the
// new repository. Run with -race in CI, this also exercises the
// generation hand-off for data races.
func TestHotReloadDrainsInFlight(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := bellflower.DefaultSyntheticConfig()
			cfg.TargetNodes = 1200
			repo, err := bellflower.Synthetic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := newServer(repo, "synthetic", bellflower.ServiceConfig{}, shards, bellflower.PartitionClustered, t.TempDir(), newQuietLogger())
			ts := httptest.NewServer(srv.routes())
			defer func() {
				ts.Close()
				srv.closeNow()
			}()
			gen0 := srv.cur // the generation about to be retired

			// Every goroutine keeps requesting until the swap has happened (and
			// for at least perG requests), so the swap always lands on traffic
			// however quickly a single request is answered.
			const goroutines, perG = 6, 4
			var wg sync.WaitGroup
			var failures, sent atomic.Int64
			swapped := make(chan struct{})
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						if i >= perG {
							select {
							case <-swapped:
								return
							default:
							}
						}
						// Unique schemas bypass cache and dedupe so every
						// request runs the pipeline and holds its
						// generation open for real work.
						body := fmt.Sprintf(`{"personal":"press%d(title,author,year)","options":{"delta":0.5}}`, sent.Add(1))
						resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(body))
						if err != nil {
							failures.Add(1)
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							failures.Add(1)
							t.Errorf("goroutine %d request %d: status %d — an in-flight request was cancelled by the reload", g, i, resp.StatusCode)
						}
					}
				}(g)
			}

			// Swap once requests are provably in flight against gen0 (the
			// server's own reference plus at least one handler's).
			waitFor(t, func() bool { return gen0.refs.Load() > 1 })
			resp, data := postJSON(t, ts.URL+"/v1/repository", `{"action":"synthetic","nodes":300,"seed":9}`)
			close(swapped)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("swap: %d (%s)", resp.StatusCode, data)
			}
			wg.Wait()
			if failures.Load() > 0 {
				t.Fatalf("%d of %d requests failed across the reload; drain must cancel none", failures.Load(), sent.Load())
			}

			// The old generation closes exactly when its last request lets
			// go — never before, never leaked.
			waitFor(t, func() bool { return gen0.refs.Load() == 0 })
			_, err = gen0.backend.Match(context.Background(), bellflower.MustParseSchema("book(title)"), bellflower.DefaultOptions())
			if !errors.Is(err, bellflower.ErrServiceClosed) {
				t.Errorf("retired backend err = %v, want ErrServiceClosed (drain must still close it)", err)
			}

			// Post-swap traffic serves the new repository.
			var info struct {
				Nodes  int `json:"nodes"`
				Shards int `json:"shards"`
			}
			getJSON(t, ts.URL+"/v1/repository", &info)
			if info.Nodes >= 1000 || info.Shards != shards {
				t.Errorf("post-swap repository info = %+v", info)
			}
		})
	}
}

// TestCloseNowReachesDrainingGenerations pins down the shutdown path: a
// generation swapped out but still held by an in-flight request must be
// force-closed by closeNow, or a slow request could hold Shutdown hostage
// past its budget.
func TestCloseNowReachesDrainingGenerations(t *testing.T) {
	srv := newServer(testRepo3(), "gen0", bellflower.ServiceConfig{}, 1, bellflower.PartitionClustered, "", newQuietLogger())
	gen0 := srv.cur
	hold := srv.acquire() // simulate a request still running against gen0
	srv.swap(testRepo3(), "gen1")
	gen1 := srv.cur

	// gen0 is draining, not closed: the held request can still match.
	if _, err := gen0.backend.Match(context.Background(), bellflower.MustParseSchema("book(title)"), bellflower.DefaultOptions()); err != nil {
		t.Fatalf("draining generation rejected a request before shutdown: %v", err)
	}

	srv.closeNow()
	for name, gen := range map[string]*backendRef{"retired": gen0, "current": gen1} {
		_, err := gen.backend.Match(context.Background(), bellflower.MustParseSchema("book(title)"), bellflower.DefaultOptions())
		if !errors.Is(err, bellflower.ErrServiceClosed) {
			t.Errorf("%s generation err = %v, want ErrServiceClosed after closeNow", name, err)
		}
	}
	hold.release() // late release of an already-closed generation must be a no-op
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestShardedStatsRollupAndEquivalence(t *testing.T) {
	// testBookRepo3: both shards hold a useful cluster, so both are asked.
	_, sharded := testShardedServiceOver(t, testBookRepo3(), bellflower.ServiceConfig{}, 2)
	_, plain := testShardedServiceOver(t, testBookRepo3(), bellflower.ServiceConfig{}, 1)

	// The sharded answer is the unsharded one, rank for rank.
	const body = `{"personal":"book(title,author)","options":{"delta":0.5}}`
	mappingList := func(ts *httptest.Server) []string {
		resp, data := postJSON(t, ts.URL+"/v1/match", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match: %d (%s)", resp.StatusCode, data)
		}
		var out struct {
			Mappings []struct {
				Delta float64 `json:"delta"`
				Pairs []struct {
					Personal   string `json:"personal"`
					Repository string `json:"repository"`
				} `json:"pairs"`
			} `json:"mappings"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(out.Mappings))
		for i, m := range out.Mappings {
			keys[i] = fmt.Sprintf("%.9f|%v", m.Delta, m.Pairs)
		}
		return keys
	}
	got, want := mappingList(sharded), mappingList(plain)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("sharded server found %d mappings, unsharded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mapping %d differs:\n  sharded   %s\n  unsharded %s", i, got[i], want[i])
		}
	}

	// Repeat the request: the router answers it from its own cache, so the
	// rollup shows one hit that no shard saw.
	if resp, _ := postJSON(t, sharded.URL+"/v1/match", body); resp.StatusCode != http.StatusOK {
		t.Fatal("repeat match failed")
	}
	var stats struct {
		Total  bellflower.ServiceStats   `json:"total"`
		Shards []bellflower.ServiceStats `json:"shards"`
	}
	getJSON(t, sharded.URL+"/v1/stats", &stats)
	if len(stats.Shards) != 2 {
		t.Fatalf("stats lists %d shards, want 2", len(stats.Shards))
	}
	if stats.Total.Requests != 3 {
		t.Errorf("rolled-up requests = %d, want 3 (1 request × 2 shards asked + 1 router hit)", stats.Total.Requests)
	}
	if stats.Total.CacheHits != 1 {
		t.Errorf("rolled-up cache hits = %d, want 1 (the repeat, at the router)", stats.Total.CacheHits)
	}
	for i, st := range stats.Shards {
		if st.Requests != 1 || st.CacheHits != 0 {
			t.Errorf("shard %d: %d requests, %d hits; want the first request only", i, st.Requests, st.CacheHits)
		}
	}
	var repoInfo struct {
		Trees  int `json:"trees"`
		Shards int `json:"shards"`
	}
	getJSON(t, sharded.URL+"/v1/repository", &repoInfo)
	if repoInfo.Trees != 3 || repoInfo.Shards != 2 {
		t.Errorf("repository info = %+v", repoInfo)
	}
}

// TestIdleShardNotAsked: on testRepo3's two-way clustered partition the
// catalog shard holds no useful cluster of book(title,author), so the
// router never asks it — its counters stay at zero — and both /v1/stats
// and /metrics count the skip. The two requests differ in top_n, so the
// router's report cache answers neither.
func TestIdleShardNotAsked(t *testing.T) {
	_, ts := testShardedService(t, bellflower.ServiceConfig{}, 2)
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"personal":"book(title,author)","options":{"delta":0.5,"top_n":%d}}`, 5+i)
		if resp, data := postJSON(t, ts.URL+"/v1/match", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d: %d (%s)", i, resp.StatusCode, data)
		}
	}
	var stats struct {
		Total  bellflower.ServiceStats   `json:"total"`
		Shards []bellflower.ServiceStats `json:"shards"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.Shards) != 2 || stats.Shards[0].Requests != 2 || stats.Shards[1].Requests != 0 {
		t.Fatalf("per-shard requests = %+v, want shard 0 asked twice and shard 1 never", stats.Shards)
	}
	if stats.Total.IdleSkips != 2 || stats.Total.Requests != 2 {
		t.Errorf("idle_skips = %d, requests = %d, want 2 and 2", stats.Total.IdleSkips, stats.Total.Requests)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"bellflower_idle_skips_total 2", `bellflower_shard_requests_total{shard="1"} 0`} {
		if !strings.Contains(string(data), metric) {
			t.Errorf("metrics output missing %q", metric)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	// testBookRepo3: both shards hold a useful cluster, so both are asked.
	_, ts := testShardedServiceOver(t, testBookRepo3(), bellflower.ServiceConfig{}, 2)
	if resp, _ := postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`); resp.StatusCode != http.StatusOK {
		t.Fatal("warmup match failed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, metric := range []string{
		"bellflower_requests_total 2", // one request × two shards asked
		"bellflower_shards 2",
		"bellflower_pipeline_runs_total",
		"bellflower_request_latency_seconds_bucket{le=\"+Inf\"}",
		"bellflower_request_latency_seconds_count",
	} {
		if !strings.Contains(string(data), metric) {
			t.Errorf("metrics output missing %q", metric)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHotReloadColdPrePassRace is the candidate pre-pass race stress: cold
// matches (cache- and dedupe-busting top_n, several candidate signatures)
// hammer a sharded router while the repository is hot-swapped repeatedly.
// Every request must complete with 200 — the pre-pass belongs to one
// backend generation and a draining generation finishes its in-flight
// requests before closing, so no request may ever observe a closed
// generation. Run with -race, where a pre-pass touching a closed
// generation's state would also surface as a data race.
func TestHotReloadColdPrePassRace(t *testing.T) {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = 900
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(repo, "synthetic", bellflower.ServiceConfig{}, 3, bellflower.PartitionClustered, t.TempDir(), newQuietLogger())
	ts := httptest.NewServer(srv.routes())
	defer func() {
		ts.Close()
		srv.closeNow()
	}()

	const goroutines, perG = 8, 6
	var uniq atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// A unique top_n busts the report cache (cold path); three
				// distinct personal schemas rotate the candidate signature
				// so pre-pass sharing and pre-pass execution both happen
				// concurrently with the swaps.
				body := fmt.Sprintf(
					`{"personal":"press%d(title,author,year)","options":{"delta":0.5,"top_n":%d}}`,
					g%3, 100+uniq.Add(1))
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d request %d: status %d — a cold pre-pass request failed across the reload", g, i, resp.StatusCode)
				}
			}
		}(g)
	}

	// Swap the repository several times while the cold traffic runs.
	for swap := 0; swap < 3; swap++ {
		body := fmt.Sprintf(`{"action":"synthetic","nodes":700,"seed":%d}`, swap+2)
		resp, data := postJSON(t, ts.URL+"/v1/repository", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: %d (%s)", swap, resp.StatusCode, data)
		}
	}
	wg.Wait()

	// The current generation's rollup exposes the pre-pass counter; cold
	// requests against a 3-shard router must have executed at least one.
	var stats struct {
		Total struct {
			CandidatePrePass int64 `json:"candidate_pre_pass"`
			Requests         int64 `json:"requests"`
		} `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Total.Requests > 0 && stats.Total.CandidatePrePass < 1 {
		t.Errorf("stats = %+v: sharded cold traffic reported no candidate pre-pass", stats.Total)
	}
}

// TestStatsReportCandidatePrePass pins the /v1/stats and /metrics wiring
// of the pre-pass counter: each cold request runs the full-repository
// matching once — one after the other they share no pre-pass, which is
// shared in flight but not cached — per-shard snapshots never carry the
// router-level counter, and both JSON and Prometheus surfaces agree.
func TestStatsReportCandidatePrePass(t *testing.T) {
	// testBookRepo3: both shards hold a useful cluster, so both are asked.
	_, ts := testShardedServiceOver(t, testBookRepo3(), bellflower.ServiceConfig{}, 2)

	for i := 0; i < 3; i++ {
		// Same schema and matcher, unique top_n: three cold reports, one
		// candidate signature, one pre-pass each.
		body := fmt.Sprintf(`{"personal":"book(title,author)","options":{"delta":0.5,"top_n":%d}}`, 100+i)
		if resp, data := postJSON(t, ts.URL+"/v1/match", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d: %d (%s)", i, resp.StatusCode, data)
		}
	}

	var stats struct {
		Total  bellflower.ServiceStats   `json:"total"`
		Shards []bellflower.ServiceStats `json:"shards"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Total.CandidatePrePass != 3 {
		t.Errorf("total candidate_pre_pass = %d, want 3 (three cold requests in turn)", stats.Total.CandidatePrePass)
	}
	if stats.Total.PipelineRuns != 6 {
		t.Errorf("pipeline runs = %d, want 6 (three cold requests × two shards)", stats.Total.PipelineRuns)
	}
	for i, ss := range stats.Shards {
		if ss.CandidatePrePass != 0 {
			t.Errorf("shard %d candidate_pre_pass = %d, want 0 (pre-pass work happens above the shards)", i, ss.CandidatePrePass)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "bellflower_candidate_prepass_total 3\n") {
		t.Errorf("metrics missing bellflower_candidate_prepass_total 3:\n%s", data)
	}

	// A single-shard server has no pre-pass; the flat stats shape reports 0.
	_, plain := testService(t, bellflower.ServiceConfig{})
	if resp, _ := postJSON(t, plain.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`); resp.StatusCode != http.StatusOK {
		t.Fatal("plain match failed")
	}
	var flat bellflower.ServiceStats
	getJSON(t, plain.URL+"/v1/stats", &flat)
	if flat.CandidatePrePass != 0 {
		t.Errorf("single-shard candidate_pre_pass = %d, want 0", flat.CandidatePrePass)
	}
}

// TestPartialResultsEndpoint: with -partial, a fan-out missing a shard
// returns 200 with incomplete=true and per-shard errors on the wire, and
// /v1/stats counts the partial merge; without it the same failure is an
// error status.
func TestPartialResultsEndpoint(t *testing.T) {
	ts, shards := testDistributedServer(t, bellflower.ServiceConfig{PartialResults: true}, 3)
	shards[1].Close()

	resp, data := postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial match status = %d (%s)", resp.StatusCode, data)
	}
	var out struct {
		Incomplete  bool `json:"incomplete"`
		ShardErrors []struct {
			Shard int    `json:"shard"`
			Error string `json:"error"`
		} `json:"shard_errors"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Incomplete {
		t.Error("response not marked incomplete")
	}
	if len(out.ShardErrors) != 1 || out.ShardErrors[0].Shard != 1 || out.ShardErrors[0].Error == "" {
		t.Errorf("shard_errors = %+v, want exactly shard 1 with a message", out.ShardErrors)
	}
	var stats struct {
		Total bellflower.ServiceStats `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Total.PartialResults != 1 {
		t.Errorf("partial_results = %d, want 1", stats.Total.PartialResults)
	}

	// Strict server: same dead shard, hard failure.
	strictTS, strictShards := testDistributedServer(t, bellflower.ServiceConfig{}, 3)
	strictShards[1].Close()
	resp, _ = postJSON(t, strictTS.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`)
	if resp.StatusCode == http.StatusOK {
		t.Errorf("strict server served a partially failed fan-out with 200")
	}
}

// TestMetricsShardLabelsAndMemoryGauges: the scrape exposes per-shard
// labelled series plus the unified-cache and shared-index gauges.
func TestMetricsShardLabelsAndMemoryGauges(t *testing.T) {
	// testBookRepo3: both shards hold a useful cluster, so both are asked.
	_, ts := testShardedServiceOver(t, testBookRepo3(), bellflower.ServiceConfig{CacheBytes: 1 << 20}, 2)
	if resp, _ := postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title,author)","options":{"delta":0.5}}`); resp.StatusCode != http.StatusOK {
		t.Fatal("warmup match failed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		`bellflower_shard_requests_total{shard="0"} 1`,
		`bellflower_shard_requests_total{shard="1"} 1`,
		`bellflower_shard_pipeline_runs_total{shard="0"}`,
		"bellflower_index_bytes ",
		"bellflower_cache_bytes ",
		"bellflower_cache_byte_budget 1048576",
	} {
		if !strings.Contains(string(data), metric) {
			t.Errorf("metrics output missing %q", metric)
		}
	}
	// /v1/stats carries the same memory figures in JSON.
	var stats struct {
		Total bellflower.ServiceStats `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Total.IndexBytes <= 0 || stats.Total.CacheByteBudget != 1<<20 {
		t.Errorf("stats memory figures = index:%d budget:%d", stats.Total.IndexBytes, stats.Total.CacheByteBudget)
	}
}

// TestTraceInlineAndRing: ?trace=1 returns the request's span tree inline,
// and /v1/traces serves the bounded recent ring afterwards.
func TestTraceInlineAndRing(t *testing.T) {
	srv, ts := testShardedService(t, bellflower.ServiceConfig{}, 2)
	srv.setTracing(bellflower.NewTraceRecorder(4, 2, time.Nanosecond), 0)

	resp, body := postJSON(t, ts.URL+"/v1/match?trace=1", `{"personal":"book(title,author)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d %s", resp.StatusCode, body)
	}
	var mr struct {
		Trace *bellflower.TraceSummary `json:"trace"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Trace == nil || mr.Trace.Tree == nil {
		t.Fatalf("no inline trace in %s", body)
	}
	if mr.Trace.Root != "serve.match" || mr.Trace.TraceID == "" {
		t.Errorf("trace root/id = %q/%q", mr.Trace.Root, mr.Trace.TraceID)
	}
	// The sharded cold path must show the router stages under the root.
	names := map[string]bool{}
	var walk func(n *bellflower.TraceNode)
	walk = func(n *bellflower.TraceNode) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(mr.Trace.Tree)
	for _, want := range []string{"prepass", "fanout", "shard", "merge"} {
		if !names[want] {
			t.Errorf("inline tree missing span %q (got %v)", want, names)
		}
	}

	// Without ?trace=1 the response carries no trace.
	_, plain := postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title,author)"}`)
	if strings.Contains(string(plain), `"trace"`) {
		t.Error("untraced response contains a trace field")
	}

	// Both requests entered the ring; every entry crossed the 1ns slow bar.
	resp2, tbody := getBody(t, ts.URL+"/v1/traces")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("traces: %d %s", resp2.StatusCode, tbody)
	}
	var tr struct {
		Recent []bellflower.TraceSummary `json:"recent"`
		Slow   []bellflower.TraceSummary `json:"slow"`
	}
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Recent) != 2 || len(tr.Slow) != 2 {
		t.Errorf("ring sizes recent=%d slow=%d, want 2/2", len(tr.Recent), len(tr.Slow))
	}
	if len(tr.Recent) > 0 && tr.Recent[0].Root != "serve.match" {
		t.Errorf("ring root = %q", tr.Recent[0].Root)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestSlowRequestLogging: a request slower than -slow-ms writes a span
// breakdown to the structured log.
func TestSlowRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	srv := newServer(testRepo3(), "test", bellflower.ServiceConfig{}, 1, bellflower.PartitionClustered, "", logger)
	defer srv.closeNow()
	srv.setTracing(bellflower.NewTraceRecorder(4, 2, time.Nanosecond), time.Nanosecond)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/v1/match", `{"personal":"book(title)"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d %s", resp.StatusCode, body)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, `"msg":"slow request"`) || !strings.Contains(out, `"trace_id"`) {
		t.Errorf("log missing slow-request breakdown:\n%s", out)
	}
	if !strings.Contains(out, `"tree"`) {
		t.Errorf("slow log carries no span tree:\n%s", out)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestStatsUptimeAndBuild: /v1/stats reports uptime and build provenance in
// both the flat single-shard shape and the sharded envelope.
func TestStatsUptimeAndBuild(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})
	resp, body := getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var flat struct {
		Requests      *int64   `json:"requests"` // flat shape: service fields at top level
		UptimeSeconds *float64 `json:"uptime_seconds"`
		Build         *struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.Unmarshal(body, &flat); err != nil {
		t.Fatal(err)
	}
	if flat.Requests == nil || flat.UptimeSeconds == nil || *flat.UptimeSeconds < 0 {
		t.Errorf("flat stats missing requests/uptime: %s", body)
	}
	if flat.Build == nil || flat.Build.GoVersion == "" {
		t.Errorf("flat stats missing build block: %s", body)
	}

	_, ts2 := testShardedService(t, bellflower.ServiceConfig{}, 2)
	_, body2 := getBody(t, ts2.URL+"/v1/stats")
	var sharded struct {
		Total         *json.RawMessage `json:"total"`
		UptimeSeconds *float64         `json:"uptime_seconds"`
		Build         *json.RawMessage `json:"build"`
	}
	if err := json.Unmarshal(body2, &sharded); err != nil {
		t.Fatal(err)
	}
	if sharded.Total == nil || sharded.UptimeSeconds == nil || sharded.Build == nil {
		t.Errorf("sharded stats missing total/uptime/build: %s", body2)
	}
}

// TestDebugRoutes: the -debug-addr surface serves pprof and expvar, and
// none of it leaks onto the public listener.
func TestDebugRoutes(t *testing.T) {
	dbg := httptest.NewServer(debugRoutes())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}

	_, ts := testService(t, bellflower.ServiceConfig{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public listener serves /debug/pprof/ (%d); it must not", resp.StatusCode)
	}
}
