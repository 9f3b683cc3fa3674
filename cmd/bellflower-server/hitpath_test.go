package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bellflower"
)

// Each result in a batch is that entry's /v1/match body, byte for byte
// (trailing newline trimmed), and each error and status is the single
// request's — for a batch mixing cache hits, misses, a flight follower and
// every per-entry error, with and without the span tree. The body as a
// whole is valid JSON.
func TestBatchResultsAreMatchBodies(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{MaxSchemaNodes: 8})
	requests := []string{
		`{"personal":"book(title,author)","options":{"delta":0.5}}`,        // hit (warmed below)
		`{"personal":"not a spec ((","options":{}}`,                        // 400
		`{"personal":"customer(name,email)","options":{"delta":0.5}}`,      // miss
		`{"personal":"a(b,c,d,e,f,g,h,i,j,k,l)"}`,                          // 413
		`{"personal":"book(title,author)","options":{"delta":0.5}}`,        // hit
		`{"personal":"a<b>(c&d)","options":{"variant":"gigantic"}}`,        // 400 with HTML in the message
		`{"personal":"item(name,price)","options":{"delta":0,"top_n":10}}`, // miss, many mappings
		`{"personal":"customer(name,email)","options":{"delta":0.5}}`,      // a flight follower, or a hit
		`{"personal":"zzz(qqq)","options":{"delta":1}}`,                    // miss, "mappings": []
	}
	if resp, data := postJSON(t, ts.URL+"/v1/match", requests[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, data)
	}
	batch := `{"requests":[` + strings.Join(requests, ",") + `]}`

	type entry struct {
		Result json.RawMessage
		Error  string
		Status int
	}
	for _, traced := range []bool{false, true} {
		url := ts.URL + "/v1/match/batch"
		if traced {
			url += "?trace=1"
		}
		resp, got := postJSON(t, url, batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d %s", resp.StatusCode, got)
		}
		exactFraming(t, resp, got)
		if !json.Valid(got) {
			t.Fatalf("traced=%v: batch body is not valid JSON: %s", traced, got)
		}
		var doc struct {
			Results []entry
			Trace   *bellflower.TraceSummary
		}
		if err := json.Unmarshal(got, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Results) != len(requests) {
			t.Fatalf("traced=%v: %d results for %d entries", traced, len(doc.Results), len(requests))
		}
		if traced != (doc.Trace != nil) || traced && doc.Trace.Root != "serve.batch" {
			t.Fatalf("traced=%v: batch trace %+v", traced, doc.Trace)
		}
		if traced {
			tree, err := json.Marshal(doc.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if tail := `,"trace":` + string(tree) + "}\n"; !strings.HasSuffix(string(got), tail) {
				t.Errorf("the batch does not end in its span tree:\n got: %s\nwant suffix: %s", got, tail)
			}
		}
		// What each entry answers on its own: the resident rendering (every
		// successful entry is cached by now) or the error and its status.
		for i, rq := range requests {
			r, data := postJSON(t, ts.URL+"/v1/match", rq)
			want := entry{Status: r.StatusCode}
			if r.StatusCode == http.StatusOK {
				want.Result = bytes.TrimSuffix(data, []byte("\n"))
			} else {
				var ej errorJSON
				if err := json.Unmarshal(data, &ej); err != nil {
					t.Fatalf("entry %d: %v", i, err)
				}
				want.Error = ej.Error
			}
			if e := doc.Results[i]; !bytes.Equal(e.Result, want.Result) || e.Error != want.Error || e.Status != want.Status {
				t.Errorf("traced=%v entry %d:\n got: %d %q %s\nwant: %d %q %s",
					traced, i, e.Status, e.Error, e.Result, want.Status, want.Error, want.Result)
			}
		}
	}

	// The framing around the entries, for one small batch: a hit and an
	// error.
	_, hit := postJSON(t, ts.URL+"/v1/match", requests[0])
	_, bad := postJSON(t, ts.URL+"/v1/match", requests[1])
	var ej errorJSON
	if err := json.Unmarshal(bad, &ej); err != nil {
		t.Fatal(err)
	}
	msg, _ := json.Marshal(ej.Error)
	want := `{"results":[{"result":` + strings.TrimSuffix(string(hit), "\n") +
		`,"status":200},{"error":` + string(msg) + `,"status":400}]}` + "\n"
	resp, got := postJSON(t, ts.URL+"/v1/match/batch", `{"requests":[`+requests[0]+`,`+requests[1]+`]}`)
	if string(got) != want {
		t.Errorf("batch framing:\n got: %s\nwant: %s", got, want)
	}
	exactFraming(t, resp, got)
}

// exactFraming fails t unless resp carried body under an exact
// Content-Length, not chunked.
func exactFraming(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("a %d-byte body came with Content-Length %d and Transfer-Encoding %q",
			len(body), resp.ContentLength, resp.TransferEncoding)
	}
}

// ?trace=1 on /v1/match is the plain body with the span tree spliced in as
// its last field — and the plain body is the cached rendering, untouched.
func TestTracedMatchIsThePlainBodyPlusTrace(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})
	const rq = `{"personal":"book(title,author)","options":{"delta":0.5}}`
	_, plain := postJSON(t, ts.URL+"/v1/match", rq)
	resp, traced := postJSON(t, ts.URL+"/v1/match?trace=1", rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced match: %d %s", resp.StatusCode, traced)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(traced)) {
		t.Errorf("Content-Length = %q for a %d-byte body", got, len(traced))
	}
	var tr struct {
		Trace *bellflower.TraceSummary `json:"trace"`
	}
	if err := json.Unmarshal(traced, &tr); err != nil || tr.Trace == nil {
		t.Fatalf("no trace in %s (%v)", traced, err)
	}
	want, err := bellflower.AppendMatchTraceJSON(nil, plain, tr.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traced, want) {
		t.Errorf("traced body is not plain + trace\n got: %s\nwant: %s", traced, want)
	}
	if _, again := postJSON(t, ts.URL+"/v1/match", rq); !bytes.Equal(again, plain) {
		t.Error("the trace leaked into the cached rendering")
	}
}

// gatedBackend holds every MatchJSON at a gate and records how many are
// inside at once.
type gatedBackend struct {
	bellflower.ServiceBackend
	gate           chan struct{}
	inFlight, peak atomic.Int64
}

func (g *gatedBackend) MatchJSON(ctx context.Context, p *bellflower.Tree, o bellflower.Options, raw []byte) ([]byte, error) {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for {
		if peak := g.peak.Load(); n <= peak || g.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.ServiceBackend.MatchJSON(ctx, p, o, raw)
}

// A batch runs on at most workers + queue depth goroutines, however many
// entries it has; results stay in request order and per-entry failures stay
// per entry.
func TestBatchFanoutIsBounded(t *testing.T) {
	cfg := bellflower.ServiceConfig{Workers: 2, QueueDepth: 3, MaxSchemaNodes: 8}
	const bound = 5
	gated := &gatedBackend{ServiceBackend: bellflower.NewService(testRepo3(), cfg), gate: make(chan struct{})}
	srv := newRemoteServer(gated, testRepo3(), "gated", cfg, newQuietLogger())
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() { ts.Close(); srv.closeNow() })
	var opened sync.Once
	open := func() { opened.Do(func() { close(gated.gate) }) }
	t.Cleanup(open) // runs first: a failed wait must not leave the batch parked

	roots := []string{"book", "customer", "item"}
	specs := map[string]string{"book": "book(title,author)", "customer": "customer(name,email)", "item": "item(name,price)"}
	wantStatus := map[int]int{3: http.StatusGatewayTimeout, 10: http.StatusBadRequest, 20: http.StatusRequestEntityTooLarge}
	var entries []string
	for i := 0; i < 256; i++ {
		switch wantStatus[i] {
		case http.StatusBadRequest:
			entries = append(entries, `{"personal":"broken(("}`)
		case http.StatusRequestEntityTooLarge:
			entries = append(entries, `{"personal":"a(b,c,d,e,f,g,h,i,j,k,l)"}`)
		case http.StatusGatewayTimeout: // expires at the gate
			entries = append(entries, `{"personal":"book(title)","options":{"timeout_ms":1}}`)
		default:
			entries = append(entries, fmt.Sprintf(`{"personal":%q,"options":{"delta":0.5}}`, specs[roots[i%3]]))
		}
	}

	type result struct {
		resp *http.Response
		data []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/match/batch", "application/json",
			strings.NewReader(`{"requests":[`+strings.Join(entries, ",")+`]}`))
		if err != nil {
			t.Error(err)
			done <- result{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		done <- result{resp, buf.Bytes()}
	}()
	waitFor(t, func() bool { return gated.inFlight.Load() >= bound })
	time.Sleep(20 * time.Millisecond) // room for an unbounded fan-out to overshoot
	open()
	res := <-done
	if res.resp == nil || res.resp.StatusCode != http.StatusOK {
		t.Fatalf("batch failed: %+v %s", res.resp, res.data)
	}
	exactFraming(t, res.resp, res.data)
	if peak := gated.peak.Load(); peak != bound {
		t.Errorf("%d entries were in flight at once, want exactly the bound %d", peak, bound)
	}

	var out struct {
		Results []struct {
			Result *struct {
				Mappings []struct {
					Pairs []struct {
						Personal string `json:"personal"`
					} `json:"pairs"`
				} `json:"mappings"`
			} `json:"result"`
			Error  string `json:"error"`
			Status int    `json:"status"`
		} `json:"results"`
	}
	if err := json.Unmarshal(res.data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(entries) {
		t.Fatalf("%d results for %d entries", len(out.Results), len(entries))
	}
	for i, r := range out.Results {
		if want, failing := wantStatus[i]; failing {
			if r.Status != want || r.Error == "" || r.Result != nil {
				t.Errorf("entry %d: status %d error %q, want %d with an error and no result", i, r.Status, r.Error, want)
			}
			continue
		}
		if r.Status != http.StatusOK || r.Result == nil || len(r.Result.Mappings) == 0 {
			t.Fatalf("entry %d: status %d, error %q", i, r.Status, r.Error)
		}
		if got, want := r.Result.Mappings[0].Pairs[0].Personal, "/"+roots[i%3]; got != want {
			t.Errorf("entry %d answers %s, want %s: results left request order", i, got, want)
		}
	}
}

// Bodies must end after the JSON document: a second document or stray bytes
// are a 400 on every endpoint that reads one, trailing whitespace is fine.
func TestTrailingDataIsRejected(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})
	docs := map[string]string{
		"/v1/match":       `{"personal":"a(b)"}`,
		"/v1/match/batch": `{"requests":[{"personal":"a(b)"}]}`,
		"/v1/rewrite":     `{"personal":"book(title)","query":"/book/title","options":{"delta":0.5}}`,
		"/v1/repository":  `{"action":"synthetic","nodes":200,"seed":3}`,
	}
	for path, doc := range docs {
		for _, tc := range []struct {
			name, tail string
			want       int
		}{
			{"second document", ` {"x":1}`, http.StatusBadRequest},
			{"garbage", `garbage`, http.StatusBadRequest},
			{"stray brace", `}`, http.StatusBadRequest},
			{"whitespace", " \n\t\r\n", http.StatusOK},
		} {
			resp, body := postJSON(t, ts.URL+path, doc+tc.tail)
			if resp.StatusCode != tc.want {
				t.Errorf("%s with %s: status %d, want %d (%s)", path, tc.name, resp.StatusCode, tc.want, body)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(string(body), "bad request body") {
				t.Errorf("%s with %s: body %q does not say why", path, tc.name, body)
			}
		}
	}
}

// http.ResponseController must reach the real writer through the logging
// wrapper, or a streamed batch could be neither flushed nor given a write
// deadline.
func TestStatusWriterUnwraps(t *testing.T) {
	errs := make(chan error, 2)
	h := logRequests(newQuietLogger(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		errs <- rc.SetWriteDeadline(time.Now().Add(time.Minute))
		w.WriteHeader(http.StatusTeapot)
		errs <- rc.Flush()
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if deadline, flushed := <-errs, <-errs; resp.StatusCode != http.StatusTeapot || deadline != nil || flushed != nil {
		t.Errorf("status %d, write deadline: %v, flush: %v", resp.StatusCode, deadline, flushed)
	}
}

// After a repository swap the same request body is answered from the new
// repository: the old generation's renderings are unreachable — the
// service's report cache and, with two shards, the router's — and so are
// the aliases its byte-identical repeats were answered by. Repeats in the
// new generation answer its own rendering.
func TestHotReloadNeverServesAnOldRendering(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, path := range []string{"/v1/match", "/v1/match/batch"} {
			_, ts := testShardedService(t, bellflower.ServiceConfig{}, shards)
			rq := `{"personal":"book(title,author)","options":{"delta":0.3,"top_n":5}}`
			if path == "/v1/match/batch" {
				rq = `{"requests":[` + rq + `,` + rq + `]}`
			}
			_, old := postJSON(t, ts.URL+path, rq)
			if _, again := postJSON(t, ts.URL+path, rq); !bytes.Equal(old, again) {
				t.Fatalf("shards=%d %s: warm response differs from the first", shards, path)
			}
			if resp, data := postJSON(t, ts.URL+"/v1/repository", `{"action":"synthetic","nodes":400,"seed":9}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("swap: %d %s", resp.StatusCode, data)
			}
			_, fresh := postJSON(t, ts.URL+path, rq)
			if bytes.Equal(fresh, old) {
				t.Errorf("shards=%d %s: the swapped-out repository's rendering was served", shards, path)
			}
			if strings.Contains(string(fresh), "/lib/") || strings.Contains(string(fresh), "/store/") {
				t.Errorf("shards=%d %s: post-swap answer names the old repository's trees: %s", shards, path, fresh)
			}
			if _, again := postJSON(t, ts.URL+path, rq); !bytes.Equal(again, fresh) {
				t.Errorf("shards=%d %s: a repeat in the new generation differs from its first answer", shards, path)
			}
			if shards == 1 {
				var stats bellflower.ServiceStats
				getJSON(t, ts.URL+"/v1/stats", &stats)
				if stats.PipelineRuns != 1 || stats.CacheMisses == 0 || stats.CacheHits == 0 {
					t.Errorf("%s: new generation shows %d pipeline runs, %d misses, %d hits; it must have run the request itself and answered the repeat from its cache",
						path, stats.PipelineRuns, stats.CacheMisses, stats.CacheHits)
				}
				continue
			}
			// The router matches and clusters above the shards, and builds an
			// idle shard's report itself: the new generation ran the request
			// if it ran a pre-pass.
			var stats struct {
				Total bellflower.ServiceStats `json:"total"`
			}
			getJSON(t, ts.URL+"/v1/stats", &stats)
			if stats.Total.CandidatePrePass == 0 {
				t.Errorf("%s: new generation shows no pre-pass; it must have run the request itself", path)
			}
		}
	}
}

// --- the hit path, measured beside the code ---

// discardResponse is an http.ResponseWriter that counts and drops the body.
type discardResponse struct {
	header http.Header
	n      int
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// warmServer serves the benchmark's 9,759-node synthetic repository with
// reqs already answered once, so every later identical request is a hit.
func warmServer(tb testing.TB, reqs []string) (http.Handler, *server) {
	tb.Helper()
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = 9759
	cfg.Seed = 1
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// The daemon's own -timeout default: a hit must not pay for it.
	svcCfg := bellflower.ServiceConfig{Workers: 2, DefaultTimeout: 30 * time.Second}
	srv := newServer(repo, "synthetic", svcCfg, 1, bellflower.PartitionClustered, "", newQuietLogger())
	tb.Cleanup(srv.closeNow)
	h := srv.routes()
	for _, rq := range reqs {
		if w := serveOnce(h, "/v1/match", rq); w.status != http.StatusOK || w.n == 0 {
			tb.Fatalf("warm-up %s: status %d, %d bytes", rq, w.status, w.n)
		}
	}
	return h, srv
}

// serveOnce posts body to path in-process. The request is put together by
// hand — httptest.NewRequest parses a request line and headers, a dozen
// allocations that would blur the handler's own count.
func serveOnce(h http.Handler, path, body string) *discardResponse {
	w := &discardResponse{header: make(http.Header)}
	h.ServeHTTP(w, &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: path},
		Body:   io.NopCloser(strings.NewReader(body)),
	})
	return w
}

// warmRequests are n distinct top_n: 10 requests over the synthetic
// repository's vocabulary.
func warmRequests(n int) []string {
	specs := []string{"address(name,email)", "book(title,author)", "order(item,price)", "customer(name,address(city))"}
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"personal":%q,"options":{"delta":%g,"top_n":10}}`, specs[i%len(specs)], 0.4+float64(i/len(specs))/100)
	}
	return reqs
}

func BenchmarkWarmMatch(b *testing.B) {
	reqs := warmRequests(16)
	h, _ := warmServer(b, reqs)
	b.SetBytes(int64(serveOnce(h, "/v1/match", reqs[0]).n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveOnce(h, "/v1/match", reqs[i%len(reqs)]); w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

func BenchmarkWarmBatch(b *testing.B) {
	reqs := warmRequests(16)
	h, _ := warmServer(b, reqs)
	entries := make([]string, 64)
	for i := range entries {
		entries[i] = reqs[i%len(reqs)]
	}
	batch := `{"requests":[` + strings.Join(entries, ",") + `]}`
	b.SetBytes(int64(serveOnce(h, "/v1/match/batch", batch).n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveOnce(h, "/v1/match/batch", batch); w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// A byte-identical repeat costs a read of its body and one alias-index
// lookup per request or batch entry — not a decode, a schema parse, a
// signature or a rendering. Before the alias index a hit allocated ~50
// times per warm /v1/match and ~19.5 per batch entry; before the cached
// rendering, ~420 and ~370. A single request pays the per-request fixed
// costs a batch spreads over its entries — the request trace (~11
// allocations; its span tree is built only when /v1/traces or ?trace=1
// reads it), the structured log line (~8) — which is why its ceiling is the
// looser one. The body buffer and the batch's scratch are pooled, the
// batch writer's 64 KiB buffer too, and it writes each rendering in one
// piece. The server carries the
// daemon's 30 s default timeout, which a hit never starts (a timer context
// is ~4 allocations). Under the race detector sync.Pool drops pooled items
// at random, so there the ceilings stay those from before the alias index.
//
// A request whose bytes are new but whose report is cached — a decoded hit
// — still pays the decode, parse and signature: its ceiling keeps that
// fallback where it was before the alias index, so a batch that misses the
// index cannot quietly get dearer.
func TestWarmHitAllocationCeilings(t *testing.T) {
	single, entry := 28.0, 0.5
	if raceEnabled {
		single, entry = 52, 21
	}
	reqs := warmRequests(1)
	h, srv := warmServer(t, reqs)
	const runs = 100
	got := testing.AllocsPerRun(runs, func() { serveOnce(h, "/v1/match", reqs[0]) })
	t.Logf("a warm /v1/match allocates %.0f times", got)
	if got > single {
		t.Errorf("a warm /v1/match allocates %.0f times, ceiling %.0f", got, single)
	}
	const entries = 64
	batch := `{"requests":[` + strings.Repeat(reqs[0]+",", entries-1) + reqs[0] + `]}`
	got = testing.AllocsPerRun(runs, func() { serveOnce(h, "/v1/match/batch", batch) }) / entries
	t.Logf("a warm batch entry allocates %.2f times", got)
	if got > entry {
		t.Errorf("a warm batch entry allocates %.2f times, ceiling %.2f", got, entry)
	}
	// Each decoded batch holds entries that differ from every earlier one
	// in their whitespace only.
	fresh := make([]string, runs+1)
	for r := range fresh {
		elems := make([]string, entries)
		for i := range elems {
			elems[i] = "{" + spacing(r*entries+i) + reqs[0][1:]
		}
		fresh[r] = `{"requests":[` + strings.Join(elems, ",") + `]}`
	}
	next := 0
	got = testing.AllocsPerRun(runs, func() { serveOnce(h, "/v1/match/batch", fresh[next]); next++ }) / entries
	t.Logf("a decoded hit allocates %.1f times per batch entry", got)
	if got > 21 {
		t.Errorf("a decoded hit allocates %.1f times per batch entry, ceiling 21", got)
	}
	total, _ := srv.cur.backend.Snapshot()
	if total.PipelineRuns != 1 || total.CacheHits < runs*(1+2*entries) {
		t.Errorf("the measured requests were not hits: %d pipeline runs, %d hits", total.PipelineRuns, total.CacheHits)
	}
}

// countingListener counts the writes its connections make.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{c, &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1) // before the write: the client may read it before it returns
	return c.Conn.Write(p)
}

// A warm 64-entry batch — the benchmark's warm-batch request — leaves the
// daemon in one write per batchSegment of its body, plus at most two: the
// write that fills net/http's 4 KiB connection buffer behind the header,
// and the tail flushed when the handler returns. The response carries its
// exact Content-Length, not chunked framing, whose chunk headers split
// every flush in two. The in-process benchmarks write into a
// discardResponse and cannot see this; with chunked framing and a 32 KB
// buffer the same batch took 21 writes.
func TestBatchWriteBudget(t *testing.T) {
	reqs := warmRequests(16)
	h, _ := warmServer(t, reqs)
	ts, ln := countingServer(t, h)
	entries := make([]string, 64)
	for i := range entries {
		entries[i] = reqs[i%len(reqs)]
	}
	resp, body := postJSON(t, ts.URL+"/v1/match/batch", `{"requests":[`+strings.Join(entries, ",")+`]}`)
	writes := ln.writes.Load()
	if resp.StatusCode != http.StatusOK || len(body) <= batchSegment {
		t.Fatalf("status %d, %d bytes: want a 200 spanning more than one %d-byte segment", resp.StatusCode, len(body), batchSegment)
	}
	exactFraming(t, resp, body)
	budget := int64((len(body)+batchSegment-1)/batchSegment + 2)
	t.Logf("a %d-byte batch took %d writes, budget %d", len(body), writes, budget)
	if writes > budget {
		t.Errorf("%d writes, budget %d", writes, budget)
	}
}

// countingServer serves h over a loopback socket whose writes ln counts.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, ln
}

// A warm top-10 answer for the paper's book(title,author) leaves the daemon
// in one write: header and body fit net/http's 4 KiB connection buffer,
// flushed once when the handler returns. Indented, the same answer was
// ~4.8 KB and took two writes, the buffer's worth and the rest.
func TestMatchWriteBudget(t *testing.T) {
	rq := warmRequests(2)[1]
	h, _ := warmServer(t, []string{rq})
	ts, ln := countingServer(t, h)
	resp, body := postJSON(t, ts.URL+"/v1/match", rq)
	writes := ln.writes.Load()
	var doc struct{ Mappings []json.RawMessage }
	if err := json.Unmarshal(body, &doc); resp.StatusCode != http.StatusOK || err != nil || len(doc.Mappings) != 10 {
		t.Fatalf("status %d, %d mappings (%v): want a 200 with ten", resp.StatusCode, len(doc.Mappings), err)
	}
	exactFraming(t, resp, body)
	t.Logf("a %d-byte answer took %d writes", len(body), writes)
	if writes != 1 {
		t.Errorf("%d writes, want 1", writes)
	}
}

// batchLen counts exactly what writeBatch writes — results and errors,
// every status, with and without the trace tail — and allocates nothing.
func TestBatchLenIsWhatIsWritten(t *testing.T) {
	entries := []batchEntry{
		{"result", []byte("{\n  \"mappings\": []\n}\n"), http.StatusOK},
		{"error", []byte(`"bad request body: <"`), http.StatusBadRequest},
		{"error", []byte(`"too large"`), http.StatusRequestEntityTooLarge},
		{"error", []byte(`"context deadline exceeded"`), http.StatusGatewayTimeout},
		{"result", []byte(`{"mappings":[]}`), http.StatusOK}, // no trailing newline
	}
	for n := 1; n <= len(entries); n++ {
		for _, trace := range [][]byte{nil, []byte("{\n    \"root\": \"serve.batch\"\n  }")} {
			var buf bytes.Buffer
			if err := writeBatch(&buf, entries[:n], trace); err != nil {
				t.Fatal(err)
			}
			if got := batchLen(entries[:n], trace); got != buf.Len() {
				t.Errorf("%d entries, trace %v: batchLen %d, wrote %d bytes", n, trace != nil, got, buf.Len())
			}
			if !json.Valid(buf.Bytes()) {
				t.Errorf("%d entries, trace %v: invalid JSON %s", n, trace != nil, buf.Bytes())
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { batchLen(entries, nil) }); a != 0 {
		t.Errorf("batchLen allocates %.0f times", a)
	}
}

// spacing spells n in JSON whitespace, one of two characters per bit.
func spacing(n int) string {
	var b strings.Builder
	for ; n > 0; n >>= 1 {
		b.WriteByte(" \n"[n&1])
	}
	return b.String()
}

// splitBatch accepts exactly {"requests":[e1,…,en]} with JSON whitespace,
// the key once and in lowercase, and 1 to 256 objects; it delimits objects
// by nesting outside strings. Anything else is nil: encoding/json decides.
func TestSplitBatch(t *testing.T) {
	const e = `{"personal":"a(b)"}`
	tricky := `{"personal":"a(b)","options":{"variant":"}],\"{["}}`
	full := make([]string, maxBatchEntries)
	for i := range full {
		full[i] = e
	}
	for _, tc := range []struct {
		body string
		want []string
	}{
		{`{"requests":[` + e + `]}`, []string{e}},
		{" \t\r\n{ \"requests\" :\n[ " + e + " ,\n" + tricky + " ] }\n", []string{e, tricky}},
		{`{"requests":[` + strings.Repeat(e+",", 255) + e + `]}`, full},
		{`{"requests":[` + strings.Repeat(e+",", 256) + e + `]}`, nil}, // 257 entries
		{`{"requests":[]}`, nil},
		{`{"Requests":[` + e + `]}`, nil},
		{`{"requests":[` + e + `],"requests":[` + e + `]}`, nil},
		{`{"requests":[` + e + `,]}`, nil},
		{`{"requests":[` + e + ` ` + e + `]}`, nil},
		{`{"requests":[null]}`, nil},
		{`{"requests":[` + e + `]} x`, nil},
		{`{"requests":[` + e + `]`, nil},
		{`{"requests":[{"personal":"a(b)}]}`, nil}, // an unterminated string
		{`[` + e + `]`, nil},
	} {
		got := splitBatch([]byte(tc.body), nil)
		if (got == nil) != (tc.want == nil) || len(got) != len(tc.want) {
			t.Errorf("%q: split into %q, want %q", tc.body, got, tc.want)
			continue
		}
		for i := range got {
			if string(got[i]) != tc.want[i] {
				t.Errorf("%q: element %d is %q, want %q", tc.body, i, got[i], tc.want[i])
			}
		}
	}
}

// A batch is answered from the alias index only when every element is a
// byte-identical repeat: one new element, or a body splitBatch refuses,
// sends the whole batch through encoding/json. Either way each entry
// counts once, and an alias-served batch records no entry span.
func TestBatchAliasesAllOrNothing(t *testing.T) {
	_, ts := testService(t, bellflower.ServiceConfig{})
	a := `{"personal":"book(title,author)","options":{"delta":0.5}}`
	b := `{"personal":"customer(name,email)","options":{"delta":0.5}}`
	if resp, data := postJSON(t, ts.URL+"/v1/match", a); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, data)
	}
	var answer []byte
	for _, tc := range []struct {
		name       string
		body       string
		hits, runs int64
		aliased    bool
	}{
		{"one new element", `{"requests":[` + a + `,` + b + `]}`, 1, 1, false},
		{"every element a repeat", `{"requests":[` + a + `,` + b + `]}`, 2, 0, true},
		{"a body splitBatch refuses", `{"Requests":[` + a + `,` + b + `]}`, 2, 0, false},
	} {
		var before, after bellflower.ServiceStats
		getJSON(t, ts.URL+"/v1/stats", &before)
		resp, data := postJSON(t, ts.URL+"/v1/match/batch", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, resp.StatusCode, data)
		}
		if answer == nil {
			answer = data
		} else if !bytes.Equal(data, answer) {
			t.Errorf("%s: the batch answer differs from the first:\n got: %s\nwant: %s", tc.name, data, answer)
		}
		getJSON(t, ts.URL+"/v1/stats", &after)
		if after.Requests-before.Requests != 2 || after.CacheHits-before.CacheHits != tc.hits ||
			after.PipelineRuns-before.PipelineRuns != tc.runs {
			t.Errorf("%s: requests +%d, hits +%d, runs +%d; want +2, +%d, +%d", tc.name,
				after.Requests-before.Requests, after.CacheHits-before.CacheHits,
				after.PipelineRuns-before.PipelineRuns, tc.hits, tc.runs)
		}
		var traces struct{ Recent []bellflower.TraceSummary }
		getJSON(t, ts.URL+"/v1/traces", &traces)
		if last := traces.Recent[len(traces.Recent)-1]; last.Root != "serve.batch" || (last.Spans == 1) != tc.aliased {
			t.Errorf("%s: the batch's trace has %d spans; served from the alias index: %v", tc.name, last.Spans, tc.aliased)
		}
	}
}

// With the report cache off (-cache -1) there is no alias index to look in,
// so match bodies are decoded off the wire as they arrive: nothing is read
// whole, split, hashed or recorded, no repeat is a hit, and bad or
// oversized bodies are answered as before.
func TestCacheOffDecodesOffTheWire(t *testing.T) {
	srv, ts := testService(t, bellflower.ServiceConfig{CacheSize: -1})
	if srv.aliasing {
		t.Fatal("a server whose backend keeps no report cache reads bodies whole")
	}
	srv.setMaxBody(512)
	a := `{"personal":"book(title,author)","options":{"delta":0.5}}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/match", a}, {"/v1/match", a}, {"/v1/match/batch", `{"requests":[` + a + `,` + a + `]}`},
	} {
		if resp, data := postJSON(t, ts.URL+tc.path, tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, resp.StatusCode, data)
		}
	}
	var st bellflower.ServiceStats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests != 4 || st.CacheHits != 0 {
		t.Errorf("requests %d, hits %d; want 4, 0", st.Requests, st.CacheHits)
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"personal":`, http.StatusBadRequest},
		{a + ` x`, http.StatusBadRequest},
		{`{"personal":"` + strings.Repeat("a", 600) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		for _, path := range []string{"/v1/match", "/v1/match/batch"} {
			if resp, data := postJSON(t, ts.URL+path, tc.body); resp.StatusCode != tc.status {
				t.Errorf("%s %q: %d %s, want %d", path, tc.body, resp.StatusCode, data, tc.status)
			}
		}
	}
}
