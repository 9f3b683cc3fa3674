package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrShardUnhealthy marks a shard that was SKIPPED by the fan-out because
// its control plane reports no healthy replica — no request was sent, so
// the skip costs nothing (in particular, not the per-shard timeout a dead
// endpoint would eat). Only the partial-results fan-out skips: under
// strict routing the request must fail anyway if the shard is truly down,
// and attempting it gives a just-recovered shard a chance the (possibly
// stale) health state would deny. Match with errors.Is.
var ErrShardUnhealthy = errors.New("serve: shard unhealthy")

// HealthReporter is implemented by shard backends with a liveness opinion
// of their own (shardrpc.ReplicaSet, whose background monitors probe every
// replica). The router consults it before fanning out: under partial
// results an unhealthy shard is skipped instantly instead of paying a
// doomed network attempt. Healthy must be safe for concurrent use and
// cheap — it sits on the per-request fan-out path.
type HealthReporter interface {
	// Healthy reports whether the backend believes it can serve a match
	// request right now (for a replica group: at least one healthy
	// replica).
	Healthy() bool
}

// HealthConfig tunes one HealthMonitor. The zero value picks the
// defaults given on each field.
type HealthConfig struct {
	// Interval is the base probe period. Every wait is jittered ±20% so a
	// fleet of monitors started together does not thunder against the
	// same shard forever. Each probe is bounded by Interval, capped at
	// maxProbeTimeout. Default 5s.
	Interval time.Duration

	// FailureThreshold is the number of CONSECUTIVE failures — background
	// probes and live-traffic transport errors count alike — after which
	// the target is marked unhealthy. Default 3.
	FailureThreshold int
}

// maxProbeTimeout caps the bound on one probe.
const maxProbeTimeout = 2 * time.Second

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	return c
}

// ReplicaHealth is one monitored target's control-plane snapshot, surfaced
// per shard in Stats.Replicas (and as the bellflower_shard_healthy
// Prometheus gauge).
type ReplicaHealth struct {
	// Addr identifies the replica (its base URL for a remote shard).
	Addr string `json:"addr"`

	// Healthy is the monitor's current verdict.
	Healthy bool `json:"healthy"`

	// ConsecutiveFailures is the current failure streak (probes plus
	// live-traffic transport errors); FailureThreshold of these in a row
	// flip Healthy to false.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`

	// Probes counts background health probes run so far.
	Probes int64 `json:"probes"`

	// Transitions counts healthy<->unhealthy state changes.
	Transitions int64 `json:"transitions"`

	// LastError is the most recent probe or traffic failure, empty after
	// a clean probe.
	LastError string `json:"last_error,omitempty"`
}

// HealthMonitor tracks one target's liveness: a consecutive-failure
// state machine fed by background probes (Start) and by live traffic
// (ReportFailure/ReportSuccess). It is the control-plane primitive behind
// shardrpc.ReplicaSet — one monitor per replica — but is
// transport-agnostic: the probe is just a func, typically a remote
// shard's Check, which re-verifies the descriptor handshake, so
// re-admission of a recovered target never trusts a stale topology.
//
// All methods are safe for concurrent use.
type HealthMonitor struct {
	cfg   HealthConfig
	name  string
	check func(ctx context.Context) error

	mu          sync.Mutex
	healthy     bool
	failures    int // consecutive failures (probe or traffic)
	probes      int64
	transitions int64
	lastErr     string

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewHealthMonitor builds a monitor for one target, initially healthy.
// name labels snapshots (a replica address); check runs one probe and
// must honour its context. The monitor is passive until Start.
func NewHealthMonitor(name string, check func(ctx context.Context) error, cfg HealthConfig) *HealthMonitor {
	return &HealthMonitor{
		cfg:     cfg.withDefaults(),
		name:    name,
		check:   check,
		healthy: true,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the background probe loop: every Interval (jittered
// ±20%) the check runs under min(Interval, maxProbeTimeout) and feeds the
// state machine. Idempotent; stop it with Stop.
func (m *HealthMonitor) Start() {
	m.startOnce.Do(func() { go m.loop() })
}

// Stop terminates the probe loop and waits for it to exit. Idempotent;
// safe to call on a monitor that was never started.
func (m *HealthMonitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) }) // never started: unblock the wait
	<-m.done
}

func (m *HealthMonitor) loop() {
	defer close(m.done)
	// Each wait is independently jittered: 0.8–1.2 × Interval.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	timer := time.NewTimer(m.jitter(rng))
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C:
		}
		m.Probe()
		timer.Reset(m.jitter(rng))
	}
}

func (m *HealthMonitor) jitter(rng *rand.Rand) time.Duration {
	f := 0.8 + 0.4*rng.Float64()
	return time.Duration(float64(m.cfg.Interval) * f)
}

// Probe runs one health check immediately (the loop's body; exported so
// tests and eager callers can drive the state machine without waiting out
// an interval) and reports the resulting verdict. One clean probe re-admits
// an unhealthy target: a probe is a full check (for a remote shard it
// re-verifies the descriptor handshake), so recovery is always gated on
// topology re-verification, never on a lucky request.
func (m *HealthMonitor) Probe() bool {
	ctx, cancel := context.WithTimeout(context.Background(), min(m.cfg.Interval, maxProbeTimeout))
	err := m.check(ctx)
	cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.probes++
	if err != nil {
		m.recordFailureLocked(err)
		return m.healthy
	}
	m.lastErr = ""
	m.failures = 0
	if !m.healthy {
		m.healthy = true
		m.transitions++
	}
	return m.healthy
}

// ReportFailure feeds a live-traffic failure (a transport error during a
// match attempt) into the state machine: outages surface at traffic
// speed, not probe speed.
func (m *HealthMonitor) ReportFailure(err error) {
	m.mu.Lock()
	m.recordFailureLocked(err)
	m.mu.Unlock()
}

func (m *HealthMonitor) recordFailureLocked(err error) {
	if err != nil {
		m.lastErr = err.Error()
	}
	m.failures++
	if m.healthy && m.failures >= m.cfg.FailureThreshold {
		m.healthy = false
		m.transitions++
	}
}

// ReportSuccess feeds a live-traffic success. It clears a healthy
// target's failure streak; it deliberately does NOT re-admit an unhealthy
// one — only a probe can (the probe is the path that re-verifies the
// descriptor), so a lone lucky response cannot cancel a mark-down that
// probes keep confirming.
func (m *HealthMonitor) ReportSuccess() {
	m.mu.Lock()
	if m.healthy {
		m.failures = 0
		m.lastErr = ""
	}
	m.mu.Unlock()
}

// MarkUnhealthy forces the target unhealthy immediately, bypassing the
// failure threshold — the construction-time seed for a replica that was
// already unreachable at wiring time, so the first requests don't pay
// discovery all over again.
func (m *HealthMonitor) MarkUnhealthy(err error) {
	m.mu.Lock()
	if err != nil {
		m.lastErr = err.Error()
	}
	if m.failures < m.cfg.FailureThreshold {
		m.failures = m.cfg.FailureThreshold
	}
	if m.healthy {
		m.healthy = false
		m.transitions++
	}
	m.mu.Unlock()
}

// Healthy reports the current verdict.
func (m *HealthMonitor) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy
}

// Snapshot returns the monitor's control-plane state for Stats.Replicas.
func (m *HealthMonitor) Snapshot() ReplicaHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ReplicaHealth{
		Addr:                m.name,
		Healthy:             m.healthy,
		ConsecutiveFailures: m.failures,
		Probes:              m.probes,
		Transitions:         m.transitions,
		LastError:           m.lastErr,
	}
}

// String renders the monitor compactly for error messages.
func (m *HealthMonitor) String() string {
	s := m.Snapshot()
	state := "healthy"
	if !s.Healthy {
		state = fmt.Sprintf("unhealthy (%d consecutive failures, last: %s)", s.ConsecutiveFailures, s.LastError)
	}
	return fmt.Sprintf("%s: %s", s.Addr, state)
}
