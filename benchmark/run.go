package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"bellflower"
	"bellflower/internal/serve"
)

const (
	setupCycles  = 25 // start/stop cycles behind the setup_s median
	sampleEvery  = 16 // every sampleEvery-th op is verified against the in-process run
	minP99Sample = 1000
)

// servedRepository rebuilds, in-process, the repository every daemon
// serves, the way the daemon's -synthetic and -seed flags do.
func servedRepository() (*bellflower.Repository, error) {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = servedNodes
	cfg.Seed = servedSeed
	return bellflower.Synthetic(cfg)
}

// window is what the closed-loop client observed between opening and
// closing the measured window.
type window struct {
	wall       time.Duration
	attempted  int       // match requests sent (batch entries count individually)
	failed     int       // non-200, transport error, incomplete, unordered or unverified
	latencyMS  []float64 // one per HTTP call, in send order
	respBytes  int64
	cpuSeconds float64   // user+sys of all daemons over the window
	cpuPer     []float64 // the same per daemon
	peakRSSMB  float64
	before     serve.Stats
	after      serve.Stats
	sampled    int // results compared with the in-process run
	firstErr   error
	spans      []span // one per HTTP call; only with tracing on
}

// ops is the number of HTTP calls in the window.
func (win *window) ops() int { return len(win.latencyMS) }

// statsDoc is /v1/stats: flat for one backend, {"total","shards"} behind a
// router.
type statsDoc struct {
	serve.Stats
	Total *serve.Stats `json:"total"`
}

func fetchStats(hc *http.Client, addr string) (serve.Stats, error) {
	resp, err := hc.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Stats{}, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return serve.Stats{}, fmt.Errorf("/v1/stats: %w", err)
	}
	if doc.Total != nil {
		return *doc.Total, nil
	}
	return doc.Stats, nil
}

// newHTTPClient is the single closed-loop client: one keep-alive
// connection, no compression, no client-side timeout below the daemon's
// own.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 2},
		Timeout:   60 * time.Second,
	}
}

// call sends one op and reads the whole response into buf. The returned
// latency covers request write to last body byte.
func call(hc *http.Client, addr string, o op, buf *bytes.Buffer) (status int, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	_, err = io.Copy(buf, resp.Body)
	lat = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// measureSetup starts and stops the topology setupCycles times and returns
// the median time from first spawn to first 200 from the public /healthz.
func measureSetup(bin, logDir string, topo topology, hc *http.Client, cycles int) (float64, error) {
	took := make([]float64, 0, cycles)
	for i := 0; i < cycles; i++ {
		f, d, err := startFleet(bin, logDir, topo, hc)
		if err != nil {
			return 0, err
		}
		f.stop()
		took = append(took, d.Seconds())
	}
	return median(took), nil
}

// runWindow drives the workload against a running fleet: warm-up, then the
// measured window of the given length, one request in flight at a time.
// With rec non-nil every HTTP call of the window is recorded as a span.
func runWindow(w *workload, f *fleet, hc *http.Client, length time.Duration, warmups int, rec *recorder) (*window, error) {
	var buf bytes.Buffer
	batch := w.topo == topoSingleCached
	for _, o := range w.warmup[:warmups] {
		status, _, err := call(hc, f.public, o, &buf)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request failed: status %d, %v: %.200s", status, err, buf.Bytes())
		}
	}

	win := &window{latencyMS: make([]float64, 0, 1<<16)}
	var err error
	if win.before, err = fetchStats(hc, f.public); err != nil {
		return nil, err
	}
	cpu0, per0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}

	type retained struct {
		o    op
		body []byte
	}
	var samples []retained
	lastBody := make(map[int][]byte) // first request index of the op → last retained body

	start := time.Now()
	for i := 0; time.Since(start) < length; i++ {
		o := w.opAt(i)
		var sp *span
		if rec != nil {
			sp = rec.start(i, nil, "http.call")
		}
		status, lat, err := call(hc, f.public, o, &buf)
		if sp != nil {
			sp.end(map[string]float64{"requests": float64(len(o.reqs)), "resp_bytes": float64(buf.Len())})
		}
		win.attempted += len(o.reqs)
		win.latencyMS = append(win.latencyMS, float64(lat)/float64(time.Millisecond))
		win.respBytes += int64(buf.Len())
		if err != nil || status != http.StatusOK {
			win.failed += len(o.reqs)
			if win.firstErr == nil {
				win.firstErr = fmt.Errorf("op %d: status %d, %v: %.200s", i, status, err, buf.Bytes())
			}
			continue
		}
		ok, bad := scanResponse(buf.Bytes(), batch)
		if ok+bad != len(o.reqs) {
			bad = len(o.reqs) - ok
		}
		if bad > 0 {
			win.failed += bad
			if win.firstErr == nil {
				win.firstErr = fmt.Errorf("op %d: %d of %d results incomplete, unordered, over top-N or not 200", i, bad, len(o.reqs))
			}
		}
		if i%sampleEvery == 0 {
			// Identical bodies (cache hits) need verifying once.
			if prev, seen := lastBody[o.reqs[0]]; !seen || !bytes.Equal(prev, buf.Bytes()) {
				body := append([]byte(nil), buf.Bytes()...)
				lastBody[o.reqs[0]] = body
				samples = append(samples, retained{o, body})
			}
			win.sampled += len(o.reqs)
		}
	}
	win.wall = time.Since(start)

	cpu1, per1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	win.cpuSeconds = cpu1 - cpu0
	for i := range per1 {
		win.cpuPer = append(win.cpuPer, per1[i]-per0[i])
	}
	if win.peakRSSMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	if win.after, err = fetchStats(hc, f.public); err != nil {
		return nil, err
	}
	if rec != nil {
		win.spans = rec.spans
	}

	// Verification runs the pipeline in this process; it waits until the
	// window is closed so it never competes with the daemons for the cores.
	ref, err := newReference(w.requests)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		bad, err := ref.verifySample(s.o, s.body)
		win.failed += bad
		if err != nil && win.firstErr == nil {
			win.firstErr = err
		}
	}
	return win, nil
}

// delta is how far a /v1/stats counter moved over the window.
func (win *window) delta(get func(serve.Stats) int64) float64 {
	return float64(get(win.after) - get(win.before))
}

// intent checks, from the /v1/stats deltas, that the window exercised the
// path the workload exists to measure.
func (win *window) intent(w *workload) error {
	d := win.delta
	reqs := d(func(s serve.Stats) int64 { return s.Requests })
	if reqs <= 0 {
		return fmt.Errorf("no requests counted by /v1/stats")
	}
	runs := d(func(s serve.Stats) int64 { return s.PipelineRuns }) / reqs
	hits := d(func(s serve.Stats) int64 { return s.CacheHits }) / reqs
	switch w.topo {
	case topoSingleNoCache:
		if runs < 0.99 {
			return fmt.Errorf("%s: %.3f pipeline runs per request, want ≥ 0.99 (every request must run the pipeline)", w.name, runs)
		}
	case topoSingleCached:
		if hits < 0.999 {
			return fmt.Errorf("%s: report-cache hit ratio %.4f, want ≥ 0.999", w.name, hits)
		}
	case topoDist2:
		if hits < 0.70 || hits > 0.80 {
			return fmt.Errorf("%s: shard report-cache hit ratio %.3f, want 0.70–0.80", w.name, hits)
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run: the contract's JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the six user-visible metrics from a window.
func (win *window) endToEnd(setupS float64) map[string]metric {
	sorted := append([]float64(nil), win.latencyMS...)
	sort.Float64s(sorted)
	succeeded := float64(win.attempted - win.failed)
	return map[string]metric{
		"req_per_s":      {succeeded / win.wall.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(sorted, 0.50), "ms"},
		"latency_p99_ms": {percentile(sorted, 0.99), "ms"},
		"cpu_ms_per_req": {win.cpuSeconds * 1000 / float64(win.attempted), "ms"},
		"peak_rss_mb":    {win.peakRSSMB, "MB"},
		"setup_s":        {setupS, "s"},
	}
}

var endToEndOrder = []string{"req_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_req", "peak_rss_mb", "setup_s"}
