package serve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bellflower/internal/labeling"
)

// flakyCheck is a probe target whose verdict tests flip atomically.
type flakyCheck struct{ fail atomic.Bool }

func (f *flakyCheck) check(ctx context.Context) error {
	if f.fail.Load() {
		return errors.New("injected probe failure")
	}
	return nil
}

// TestHealthMonitorStateMachine drives the consecutive-failure machine by
// hand: threshold mark-down, probe-gated re-admission, and the rule that
// live-traffic successes never re-admit an unhealthy target.
func TestHealthMonitorStateMachine(t *testing.T) {
	var f flakyCheck
	m := NewHealthMonitor("shard-a", f.check, HealthConfig{FailureThreshold: 3})
	defer m.Stop()

	if !m.Healthy() {
		t.Fatal("fresh monitor not healthy")
	}

	// Two failures: still healthy (threshold 3), streak visible.
	f.fail.Store(true)
	m.Probe()
	m.ReportFailure(errors.New("transport: connection refused"))
	if !m.Healthy() {
		t.Fatal("marked unhealthy below the failure threshold")
	}
	if s := m.Snapshot(); s.ConsecutiveFailures != 2 {
		t.Fatalf("ConsecutiveFailures = %d, want 2", s.ConsecutiveFailures)
	}

	// A live-traffic success while HEALTHY clears the streak.
	m.ReportSuccess()
	if s := m.Snapshot(); s.ConsecutiveFailures != 0 || s.LastError != "" {
		t.Fatalf("healthy ReportSuccess did not clear the streak: %+v", s)
	}

	// Third-in-a-row marks down; probes and traffic failures count alike.
	m.ReportFailure(errors.New("one"))
	m.Probe()
	m.ReportFailure(errors.New("three"))
	if m.Healthy() {
		t.Fatal("not marked unhealthy at the failure threshold")
	}
	s := m.Snapshot()
	if s.Transitions != 1 {
		t.Fatalf("Transitions = %d, want 1", s.Transitions)
	}
	if s.LastError != "three" {
		t.Fatalf("LastError = %q, want the most recent failure", s.LastError)
	}
	if !strings.Contains(m.String(), "unhealthy") {
		t.Fatalf("String() = %q, want the unhealthy rendering", m.String())
	}

	// Live-traffic success must NOT re-admit: only a probe (descriptor
	// re-verification) can.
	m.ReportSuccess()
	if m.Healthy() {
		t.Fatal("live-traffic success re-admitted an unhealthy target")
	}

	// A failing probe keeps it down; a clean probe re-admits.
	m.Probe()
	if m.Healthy() {
		t.Fatal("failing probe re-admitted the target")
	}
	f.fail.Store(false)
	if !m.Probe() {
		t.Fatal("clean probe did not re-admit the target")
	}
	s = m.Snapshot()
	if !s.Healthy || s.Transitions != 2 || s.ConsecutiveFailures != 0 || s.LastError != "" {
		t.Fatalf("re-admitted snapshot wrong: %+v", s)
	}
}

// TestHealthMonitorOneCleanProbeReadmits: a failed probe keeps a marked-down
// replica down however often it repeats, and the first clean probe
// re-admits it.
func TestHealthMonitorOneCleanProbeReadmits(t *testing.T) {
	var f flakyCheck
	m := NewHealthMonitor("shard-b", f.check, HealthConfig{FailureThreshold: 1})
	defer m.Stop()

	f.fail.Store(true)
	m.Probe()
	if m.Healthy() {
		t.Fatal("threshold 1 did not mark down on the first failure")
	}
	for i := 0; i < 3; i++ {
		if m.Probe() {
			t.Fatalf("failed probe %d re-admitted the replica", i+1)
		}
	}
	f.fail.Store(false)
	if !m.Probe() {
		t.Fatal("one clean probe did not re-admit the replica")
	}
	if s := m.Snapshot(); s.Transitions != 2 || s.ConsecutiveFailures != 0 {
		t.Fatalf("re-admitted snapshot wrong: %+v", s)
	}
}

// TestHealthMonitorMarkUnhealthy: the construction-time seed flips
// immediately and still needs a probe to recover.
func TestHealthMonitorMarkUnhealthy(t *testing.T) {
	var f flakyCheck
	m := NewHealthMonitor("shard-c", f.check, HealthConfig{})
	defer m.Stop()
	m.MarkUnhealthy(errors.New("unreachable at construction"))
	if m.Healthy() {
		t.Fatal("MarkUnhealthy left the target healthy")
	}
	s := m.Snapshot()
	if s.Transitions != 1 || s.LastError == "" {
		t.Fatalf("seeded snapshot wrong: %+v", s)
	}
	m.ReportSuccess()
	if m.Healthy() {
		t.Fatal("traffic success re-admitted a seeded-down target")
	}
	if !m.Probe() {
		t.Fatal("clean probe did not re-admit a seeded-down target")
	}
}

// TestHealthMonitorLoop: Start runs background probes on the jittered
// interval and Stop terminates the loop (idempotently, and safely on a
// monitor that never started).
func TestHealthMonitorLoop(t *testing.T) {
	var f flakyCheck
	m := NewHealthMonitor("shard-d", f.check, HealthConfig{Interval: 2 * time.Millisecond})
	m.Start()
	m.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for m.Snapshot().Probes < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop ran %d probes, want >= 3", m.Snapshot().Probes)
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	n := m.Snapshot().Probes
	time.Sleep(20 * time.Millisecond)
	if got := m.Snapshot().Probes; got != n {
		t.Fatalf("probes kept running after Stop: %d -> %d", n, got)
	}

	// Never-started monitor: Stop must not hang.
	NewHealthMonitor("idle", f.check, HealthConfig{}).Stop()
}

// healthStub is a stubShard with a controllable HealthReporter verdict.
type healthStub struct {
	stubShard
	healthy atomic.Bool
}

func (h *healthStub) Healthy() bool { return h.healthy.Load() }

// TestRouterSkipsUnhealthyShard: the partial-results fan-out must skip a
// shard whose backend reports unhealthy WITHOUT calling it (the
// zero-per-request-tax guarantee), serve the rest as Incomplete, count
// the skip, and un-skip the moment the backend recovers; strict routing
// must keep attempting the shard regardless.
func TestRouterSkipsUnhealthyShard(t *testing.T) {
	repo := bookRepo(t) // both shards hold a useful cluster, so both are asked
	ix := labeling.NewIndex(repo)
	views := PartitionRepositoryViews(ix, 2, PartitionClustered)
	down := &healthStub{stubShard: stubShard{rep: stubReport(0.9)}}
	up := &healthStub{stubShard: stubShard{rep: stubReport(0.8)}}
	up.healthy.Store(true)
	r := NewRouterWithShardBackends(ix, views, []ShardBackend{down, up}, Config{PartialResults: true})
	defer r.Close()

	rep, err := r.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatalf("fan-out with one unhealthy shard failed outright: %v", err)
	}
	if !rep.Incomplete || len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 0 {
		t.Fatalf("incomplete=%v errors=%+v, want incomplete with shard 0 skipped", rep.Incomplete, rep.ShardErrors)
	}
	if !strings.Contains(rep.ShardErrors[0].Err, ErrShardUnhealthy.Error()) {
		t.Fatalf("skip error %q does not carry ErrShardUnhealthy", rep.ShardErrors[0].Err)
	}
	if n := down.matchCalls.Load() + down.stagedCalls.Load(); n != 0 {
		t.Fatalf("unhealthy shard was called %d times; the skip must cost nothing", n)
	}
	if got := r.Stats().HealthSkips; got != 1 {
		t.Fatalf("HealthSkips = %d, want 1", got)
	}

	// Every shard unhealthy: nothing to merge, the request errors.
	up.healthy.Store(false)
	if _, err := r.Match(context.Background(), personal(), testOpts()); !errors.Is(err, ErrShardUnhealthy) {
		t.Fatalf("all-unhealthy fan-out: err = %v, want ErrShardUnhealthy", err)
	}

	// Recovery: flip both healthy, the fan-out reaches them again.
	down.healthy.Store(true)
	up.healthy.Store(true)
	rep, err = r.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatal("recovered fan-out still marked Incomplete")
	}
	if down.stagedCalls.Load() == 0 {
		t.Fatal("recovered shard never reached")
	}

	// Strict routing ignores the health verdict: the shard is attempted.
	down.healthy.Store(false)
	strict := NewRouterWithShardBackends(ix, views, []ShardBackend{down, up}, Config{})
	defer strict.Close()
	before := down.stagedCalls.Load()
	if _, err := strict.Match(context.Background(), personal(), testOpts()); err != nil {
		t.Fatal(err)
	}
	if down.stagedCalls.Load() != before+1 {
		t.Fatal("strict fan-out skipped an unhealthy shard; only partial mode may skip")
	}
}

// TestStatsHealthFields: rollup semantics of the control-plane fields —
// Failovers and HealthSkips sum, per-replica snapshots concatenate in shard
// order (a one-shard rollup must not lose them).
func TestStatsHealthFields(t *testing.T) {
	a := Stats{Failovers: 2, HealthSkips: 1, Replicas: []ReplicaHealth{{Addr: "a", Healthy: true}}}
	b := Stats{Failovers: 3, HealthSkips: 4, Replicas: []ReplicaHealth{{Addr: "b"}}}
	m := MergeStats(a, b)
	if m.Failovers != 5 || m.HealthSkips != 5 {
		t.Fatalf("merged Failovers=%d HealthSkips=%d, want 5 and 5", m.Failovers, m.HealthSkips)
	}
	if len(m.Replicas) != 2 || m.Replicas[0].Addr != "a" || m.Replicas[1].Addr != "b" {
		t.Fatalf("rollup replicas = %+v, want a then b", m.Replicas)
	}
}

// TestPrometheusReplicaHealth: the bellflower_shard_healthy gauge is
// emitted per {shard,replica} with 1/0 values — including for a
// single-shard snapshot, where the other per-shard families are elided —
// and the rollup carries the failover/skip counters.
func TestPrometheusReplicaHealth(t *testing.T) {
	total := Stats{Failovers: 7, HealthSkips: 3}
	shards := []Stats{{
		Failovers: 7,
		Replicas: []ReplicaHealth{
			{Addr: "http://a:1", Healthy: true},
			{Addr: "http://b:2", Healthy: false},
		},
	}}
	var sb strings.Builder
	if err := WritePrometheusSnapshot(&sb, total, shards); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"bellflower_failovers_total 7",
		"bellflower_health_skips_total 3",
		`bellflower_shard_healthy{shard="0",replica="http://a:1"} 1`,
		`bellflower_shard_healthy{shard="0",replica="http://b:2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Single-shard snapshot: the duplicate per-shard counter families stay
	// elided even though replica health is present.
	if strings.Contains(out, "bellflower_shard_requests_total") {
		t.Error("single-shard snapshot emitted duplicate per-shard counter families")
	}

	// Two-shard snapshot with replicas: per-shard families AND health.
	sb.Reset()
	if err := WritePrometheusSnapshot(&sb, total, append(shards, Stats{})); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if !strings.Contains(out, `bellflower_shard_failovers_total{shard="0"} 7`) {
		t.Error("two-shard snapshot missing per-shard failover counter")
	}
	if !strings.Contains(out, `bellflower_shard_healthy{shard="0",replica="http://a:1"} 1`) {
		t.Error("two-shard snapshot missing replica health gauge")
	}
}
