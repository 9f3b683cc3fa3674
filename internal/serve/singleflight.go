package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"bellflower/internal/trace"
)

// flightGroup deduplicates identical in-flight work: the first caller of a
// key becomes the leader and triggers one underlying run; callers that
// arrive with the same key while it is still running join as followers and
// share the leader's result. (The pattern of golang.org/x/sync/singleflight,
// reimplemented here because the module has no external dependencies, with
// one addition: the shared run carries a cancellable context that is torn
// down when every waiter has gone.) Both kinds of shared work in this
// package run through it: a Service's pipeline runs and a Router's
// pre-pass.
type flightGroup[T any] struct {
	mu    sync.Mutex
	calls map[string]*call[T]
}

// call is one shared in-flight run.
type call[T any] struct {
	// runCtx governs the underlying run; cancel releases it.
	runCtx context.Context
	cancel context.CancelFunc

	// done is closed by finish after val/err are set.
	done chan struct{}
	val  T
	err  error

	// waiters counts callers currently waiting on done (guarded by the
	// group mutex). When the last waiter abandons the call, the run is
	// cancelled: nobody is left to consume the result.
	waiters int
}

func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{calls: make(map[string]*call[T])}
}

// join returns the call for key, creating it (leader == true) when no run
// is in flight. A new call's run context derives from base, which should
// be the owner's lifetime context — per-request deadlines must not bound
// the shared run directly, they act through leave instead.
func (g *flightGroup[T]) join(key string, base context.Context) (c *call[T], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	runCtx, cancel := context.WithCancel(base)
	c = &call[T]{runCtx: runCtx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	g.calls[key] = c
	return c, true
}

// leave records that one waiter abandoned c (its own context expired or
// the caller gave up). When the last waiter leaves an unfinished call, the
// shared run is cancelled and the key freed so a later identical request
// starts a fresh run instead of joining a dying one. It reports whether c
// had already finished: the leaving waiter was then handed the result, and
// holds it (see holder) like every other waiter.
func (g *flightGroup[T]) leave(key string, c *call[T]) (held bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.waiters--
	select {
	case <-c.done:
		return true
	default:
	}
	if c.waiters <= 0 {
		c.cancel()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
	}
	return false
}

// holder is a shared result that counts the callers holding it: finish
// tells it how many waiters it was handed to before any of them can see it.
type holder interface{ hold(n int32) }

// finish publishes the result, wakes every waiter and frees the key. A
// result that is a holder learns its waiter count under the group mutex,
// so a waiter that leaves concurrently is either counted here or told by
// leave that it was not.
func (g *flightGroup[T]) finish(key string, c *call[T], val T, err error) {
	g.mu.Lock()
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	c.val, c.err = val, err
	if h, ok := any(val).(holder); ok && err == nil {
		h.hold(int32(c.waiters))
	}
	close(c.done)
	g.mu.Unlock()
	c.cancel()
}

// inFlight reports the number of distinct runs currently in flight.
func (g *flightGroup[T]) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// panicError is a run that panicked, recovered by recoverRun: the panic
// value for the callers' error and the stack for the span that ran it.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("serve: pipeline run panicked: %v", e.val) }

// recoverRun, deferred by a shared run, turns a panic into a *panicError in
// *err, so the run finishes its flight with an error — every waiter wakes —
// instead of taking the process down.
func recoverRun(err *error) {
	if v := recover(); v != nil {
		*err = &panicError{val: v, stack: debug.Stack()}
	}
}

// setSpanError records err on sp, with the stack when err is a recovered
// panic, so it reaches /v1/traces and the slow log.
func setSpanError(sp *trace.Span, err error) {
	sp.SetAttr("error", err.Error())
	var pe *panicError
	if errors.As(err, &pe) {
		sp.SetAttr("stack", string(pe.stack))
	}
}
