// Command benchmark is the repository's performance benchmark: it builds
// cmd/bellflower-server from the working tree, starts the real daemon(s) as
// subprocesses on free loopback ports, drives them over HTTP from one
// closed-loop client, checks every response, and prints every metric by
// name with unit and sample count. See README.md in this directory.
//
//	bash benchmark/run.sh                       all four workloads, end-to-end metrics
//	bash benchmark/run.sh -workload cold-topn   one workload
//	bash benchmark/run.sh -trace 1              per-layer metrics and out/<workload>.trace.json
//	bash benchmark/run.sh -repeat 10            spread of each end-to-end metric over ten seeds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all)")
		seed    = flag.Int64("seed", 42, "seed of the request generator; the daemons only ever see the generated JSON bodies")
		seconds = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with span recording off; 1: per-layer metrics from a traced run")
		quick   = flag.Bool("quick", false, "one tenth of the window, warm-up and set-up cycles; smoke use only, never for recorded numbers")
		repeat  = flag.Int("repeat", 1, "run each workload this many times on consecutive seeds, then print every end-to-end metric's quartile spread beside its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		os.Exit(2)
	}
	names := workloadNames
	if *name != "" {
		if !slices.Contains(workloadNames, *name) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
		names = []string{*name}
	}

	// No exit path may leave a daemon behind: signals, panics and plain
	// errors all pass through stopAll.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			stopAll()
			panic(p)
		}
	}()

	ok, err := run(names, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *quick, *repeat)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// env is where a run builds, logs and writes traces.
type env struct {
	root   string // repository root (the directory holding the bellflower module)
	server string // built daemon binary
	outDir string // benchmark/out: daemon logs and trace files
}

func run(names []string, seed int64, length time.Duration, traced, quick bool, repeat int) (ok bool, err error) {
	e, err := prepare()
	if err != nil {
		return false, err
	}
	ok = true
	sets := make(map[string][]map[string]metric)
	for _, name := range names {
		for k := 0; k < repeat; k++ {
			res, err := runOne(e, name, seed+int64(k), length, traced, quick)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			ok = ok && res.Correct
			sets[name] = append(sets[name], res.Metrics)
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	}
	if repeat > 1 && !traced {
		printSpread(e.root, names, sets)
	}
	return ok, nil
}

// prepare locates the repository, creates the output directory and builds
// the daemon from the working tree.
func prepare() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		server: filepath.Join(root, ".bench_build", "bellflower-server"),
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	for _, dir := range []string{filepath.Dir(e.server), e.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	build := exec.Command("go", "build", "-buildvcs=false", "-o", e.server, "./cmd/bellflower-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/bellflower-server: %w\n%s", err, out)
	}
	return e, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module bellflower.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module bellflower\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the bellflower repository (no go.mod declaring module bellflower above the working directory)")
		}
		dir = parent
	}
}

// runOne runs one workload once and prints its metrics.
func runOne(e *env, name string, seed int64, length time.Duration, traced, quick bool) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	cycles, warmups := setupCycles, len(w.warmup)
	if quick {
		length, cycles = length/10, (cycles+9)/10
		if w.topo == topoSingleNoCache {
			// The other warm-ups fill a cache the workload's intent depends on.
			warmups = (warmups + 9) / 10
		}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	setupS := 0.0
	if !traced {
		if setupS, err = measureSetup(e.server, e.outDir, w.topo, hc, cycles); err != nil {
			return nil, err
		}
	}
	f, _, err := startFleet(e.server, e.outDir, w.topo, hc)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	win, err := runWindow(w, f, hc, length, warmups, rec)
	if err != nil {
		return nil, err
	}
	f.stop()

	res := &result{Attempted: win.attempted, Failed: win.failed}
	intentErr := win.intent(w)
	res.Correct = win.failed == 0 && intentErr == nil

	fmt.Printf("\nworkload %s  seed %d  window %.3f s  http calls %d  match requests %d  failed %d  verified in-process %d\n",
		w.name, seed, win.wall.Seconds(), win.ops(), win.attempted, win.failed, win.sampled)
	fmt.Printf("  why: %s\n", workloadWhy[w.name])
	if win.firstErr != nil {
		fmt.Printf("  first failure: %v\n", win.firstErr)
	}
	if intentErr != nil {
		fmt.Printf("  workload intent broken: %v\n", intentErr)
	}
	if win.ops() < minP99Sample {
		fmt.Printf("  note: %d latency samples; p99 has fewer than %d beyond it\n", win.ops(), minP99Sample/100)
	}

	if !traced {
		res.Metrics = win.endToEnd(setupS)
		samples := map[string]string{
			"req_per_s":      fmt.Sprintf("%d requests", win.attempted-win.failed),
			"latency_p50_ms": fmt.Sprintf("%d calls", win.ops()),
			"latency_p99_ms": fmt.Sprintf("%d calls", win.ops()),
			"cpu_ms_per_req": fmt.Sprintf("%d requests, %d daemons", win.attempted, len(f.daemons)),
			"peak_rss_mb":    fmt.Sprintf("%d daemons", len(f.daemons)),
			"setup_s":        fmt.Sprintf("median of %d start/stop cycles", cycles),
		}
		for _, k := range endToEndOrder {
			fmt.Printf("  %-16s %12.4f %-4s n = %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, samples[k])
		}
		return res, nil
	}

	res.Metrics = make(map[string]metric)
	inproc := newRecorder()
	if err := layerSetup(res.Metrics); err != nil {
		return nil, err
	}
	if err := layerRun(w, inproc); err != nil {
		return nil, err
	}
	layerMetrics(inproc.spans, res.Metrics)
	win.layerMetrics(w, f, inproc.spans, res.Metrics)
	path := filepath.Join(e.outDir, w.name+".trace.json")
	if err := writeTrace(path, traceFile{Workload: w.name, Seed: seed, Daemon: win.spans, InProcess: inproc.spans}); err != nil {
		return nil, err
	}
	traces := len(w.traced)
	fmt.Printf("  traced in-process: %d requests, %d spans; daemon window: %d http.call spans; written to %s\n",
		traces, len(inproc.spans), len(win.spans), path)
	printSelfTimes(inproc.spans, traces)
	for _, pl := range perLayer {
		fmt.Printf("  %-30s %14.4f %-5s n = %s\n", pl.name, res.Metrics[pl.name].Value, res.Metrics[pl.name].Unit, pl.sample(traces, win))
	}
	return res, nil
}

// printSpread prints, per workload and end-to-end metric, the median over
// the repeated runs and the distance between the first and third quartile
// as a share of it, beside the bound BENCHMARK.json fixes — the evidence
// that the metric is steady enough for its bound to mean something.
func printSpread(root string, names []string, sets map[string][]map[string]metric) {
	bounds := make(map[string]float64)
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil && json.Unmarshal(b, &doc) == nil {
		for _, m := range doc.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	fmt.Printf("\nspread over %d runs on consecutive seeds: (Q3 - Q1) / median, quartiles as Python's statistics.quantiles(n=4)\n", len(sets[names[0]]))
	for _, name := range names {
		fmt.Printf("%s\n", name)
		for _, k := range endToEndOrder {
			var vs []float64
			for _, m := range sets[name] {
				vs = append(vs, m[k].Value)
			}
			fmt.Printf("  %-16s median %12.4f %-4s spread %6.2f%%  bound %5.1f%%\n",
				k, median(vs), sets[name][0][k].Unit, 100*quartileSpread(vs), 100*bounds[k])
		}
	}
}
