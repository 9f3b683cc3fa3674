package serve

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// WritePrometheus renders a stats snapshot in the Prometheus text
// exposition format (version 0.0.4): the metric table's counters and gauges
// (see metrics), the shard wire bytes, and the request and per-stage latency
// histograms with cumulative buckets. shards is the backend's fan-out width
// (Backend.NumShards); pass a rolled-up snapshot (Backend.Stats) so the
// scrape covers every shard.
//
// The metric names emitted here are part of the server's public interface
// and documented in the README; change them only with a migration note.
func WritePrometheus(w io.Writer, st Stats, shards int) error {
	ew := &errWriter{w: w}
	v := reflect.ValueOf(&st).Elem()
	scalars := func(typ string) {
		for i := range metrics {
			if m := &metrics[i]; m.typ == typ {
				writeHeader(ew, m.name, m.help, m.typ)
				writeSample(ew, m.name, "", v.Field(m.index))
			}
		}
	}
	scalars(counter)

	const wb = "bellflower_wire_bytes_total"
	writeHeader(ew, wb, "Shard-RPC match body bytes by direction, counted at the shard server (in = request bodies received, out = response bodies sent); the wire speaks one codec.", counter)
	fmt.Fprintf(ew, "%s{dir=\"in\",codec=\"binary\"} %d\n", wb, st.WireBytes.InBinary)
	fmt.Fprintf(ew, "%s{dir=\"out\",codec=\"binary\"} %d\n", wb, st.WireBytes.OutBinary)

	writeHeader(ew, "bellflower_shards", "Repository shards served by this process.", gauge)
	fmt.Fprintf(ew, "bellflower_shards %d\n", shards)
	scalars(gauge)

	const hist = "bellflower_request_latency_seconds"
	writeHeader(ew, hist, "End-to-end request latency.", "histogram")
	writeHistogram(ew, hist, "", 1000, st.Latency)

	if len(st.Stages) > 0 {
		const stageHist = "bellflower_stage_duration_ms"
		writeHeader(ew, stageHist, "Per-stage latency by pipeline/serving stage, in milliseconds.", "histogram")
		names := make([]string, 0, len(st.Stages))
		for name := range st.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			writeHistogram(ew, stageHist, fmt.Sprintf("stage=%q", name), 1, st.Stages[name])
		}
	}
	return ew.err
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSample writes one sample line of a metric-table field: labels is the
// brace-enclosed label set or empty, v the int or float64 field value.
func writeSample(w io.Writer, name, labels string, v reflect.Value) {
	if v.Kind() == reflect.Float64 {
		fmt.Fprintf(w, "%s%s %g\n", name, labels, v.Float())
		return
	}
	fmt.Fprintf(w, "%s%s %d\n", name, labels, v.Int())
}

// writeHistogram writes one histogram's cumulative buckets, sum and count.
// label is an optional `key="value"` pair carried by every line; perUnit
// converts the snapshot's milliseconds to the family's unit (1000 for
// seconds).
func writeHistogram(w io.Writer, name, label string, perUnit float64, ls LatencyStats) {
	bucketLabel, braced := label, ""
	if label != "" {
		bucketLabel, braced = label+",", "{"+label+"}"
	}
	cum := int64(0)
	for i, ub := range ls.BucketsMS {
		if i < len(ls.Counts) {
			cum += ls.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, bucketLabel, ub/perUnit, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketLabel, ls.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced, ls.SumMS/perUnit)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, ls.Count)
}

// shardMetrics are the metric-table rows with a per-shard series, in the
// per-shard families' exposition order.
var shardMetrics = func() []*metric {
	var ms []*metric
	for i := range metrics {
		if metrics[i].shard > 0 {
			ms = append(ms, &metrics[i])
		}
	}
	sort.Slice(ms, func(a, b int) bool { return ms[a].shard < ms[b].shard })
	return ms
}()

// WritePrometheusSnapshot renders a backend's coherent snapshot
// (Backend.Snapshot): the rolled-up metrics of WritePrometheus, followed —
// when the backend actually fans out (len(shards) > 1) — by per-shard
// series labelled {shard="N"}, N being the shard's index in the router's
// shard order. The rollup names stay exactly those of WritePrometheus, so
// existing dashboards keep working; the labelled families add the
// per-shard breakdown under distinct bellflower_shard_* names. Shards
// backed by replica groups additionally emit one
// bellflower_shard_healthy{shard,replica} gauge per replica (1 healthy,
// 0 marked down) — even for a single-shard fan-out, where the other
// per-shard series would duplicate the rollup.
func WritePrometheusSnapshot(w io.Writer, total Stats, shards []Stats) error {
	if err := WritePrometheus(w, total, len(shards)); err != nil {
		return err
	}
	ew := &errWriter{w: w}
	if len(shards) > 1 {
		for _, m := range shardMetrics {
			name := "bellflower_shard_" + strings.TrimPrefix(m.name, "bellflower_")
			writeHeader(ew, name, m.shardHelp, m.typ)
			for i := range shards {
				writeSample(ew, name, fmt.Sprintf("{shard=\"%d\"}", i), reflect.ValueOf(&shards[i]).Elem().Field(m.index))
			}
		}
	}
	wroteHealthHeader := false
	for i, st := range shards {
		for _, rh := range st.Replicas {
			if !wroteHealthHeader {
				writeHeader(ew, "bellflower_shard_healthy", "Replica health per shard: 1 healthy, 0 marked unhealthy by the control plane.", gauge)
				wroteHealthHeader = true
			}
			v := 0
			if rh.Healthy {
				v = 1
			}
			fmt.Fprintf(ew, "bellflower_shard_healthy{shard=\"%d\",replica=%q} %d\n", i, rh.Addr, v)
		}
	}
	return ew.err
}

// errWriter latches the first write error so WritePrometheus needs no error
// check per line.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
