package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bellflower/internal/labeling"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/trace"
)

// ErrDescriptorMismatch marks a remote server that answers but hosts a
// different shard/partition/repository than the client expects — a
// configuration error no retry can fix; match with errors.Is. It wraps
// serve.ErrShardMismatch, so the router's fan-out hard-fails on it even
// in partial-results mode, both at Check time and per request (the shard
// server's 409 maps back to this error).
var ErrDescriptorMismatch = fmt.Errorf("shardrpc: shard descriptor mismatch: %w", serve.ErrShardMismatch)

// RemoteShardConfig tunes one remote shard client.
type RemoteShardConfig struct {
	// Timeout bounds each match attempt on top of the request context (a
	// per-shard deadline; the fan-out's own context still applies). 0 =
	// context only.
	Timeout time.Duration
}

// shardConns is how many concurrent requests one shard client keeps
// pooled connections for.
const shardConns = 16

// statsTimeout bounds one Stats fetch.
const statsTimeout = 2 * time.Second

// newShardTransportClient builds the dedicated per-shard HTTP client: the
// shared http.DefaultTransport caps idle pooled connections at 2 per
// host, which serializes a concurrent fan-out onto 2 reused connections
// plus fresh handshakes for the rest. It has no client-level timeout:
// deadlines come from RemoteShardConfig.Timeout and the request context.
func newShardTransportClient() *http.Client {
	dialer := &net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}
	return &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return copyConn{c}, nil
		},
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConns:          4 * shardConns,
		MaxIdleConnsPerHost:   shardConns,
		IdleConnTimeout:       90 * time.Second,
	}}
}

// copyConn is a shard connection that writes a full request body straight
// from its pooled buffer. The transport hands a body it cannot tell is in
// memory — a bodyReader — to the connection's ReadFrom, limited to its
// Content-Length, which a plain TCP connection copies through a fresh 32 KB
// buffer per request.
type copyConn struct{ net.Conn }

var _ io.ReaderFrom = copyConn{}

func (c copyConn) ReadFrom(r io.Reader) (int64, error) {
	w := struct{ io.Writer }{c.Conn} // hides this ReadFrom from io.Copy
	if lr, ok := r.(*io.LimitedReader); ok {
		if br, ok := lr.R.(*bodyReader); ok && int64(br.Len()) <= lr.N {
			n, err := br.WriteTo(w)
			lr.N -= n
			return n, err
		}
	}
	return io.Copy(w, r)
}

// RemoteShard is the client for ONE shard server (bellflower-server
// -shard-of) speaking the wire protocol of this package: it encodes requests,
// runs single match attempts and fetches stats. It is not a shard backend by
// itself — a ReplicaSet of one or more RemoteShards is, and owns the attempt
// policy (retry, failover, health). Node references cross the wire in the
// shard view's local-ID space; the client re-resolves them through its OWN
// view of its OWN repository copy, so decoded reports merge exactly like
// in-process shard reports.
//
// Remote 504/503 map back to context.DeadlineExceeded / serve.ErrClosed so
// the daemon's status mapping and the router's strict mode treat remote
// shards like local ones.
type RemoteShard struct {
	base string
	view *labeling.View
	desc Descriptor
	hc   *http.Client
	cfg  RemoteShardConfig

	// Client-side stage timers: what this process spends translating to
	// and from the wire and waiting on the network. Folded into Stats()
	// alongside the remote shard's own per-stage figures.
	stEncode    serve.StageTimer
	stRoundtrip serve.StageTimer
	stDecode    serve.StageTimer
}

// NewRemoteShard returns a client for the shard server at addr
// ("host:port" or a full http:// URL). view must be the caller's own view
// of the shard's tree set — the wire ID space — and desc the descriptor
// the remote side is expected to host (ViewDescriptor of view).
func NewRemoteShard(addr string, view *labeling.View, desc Descriptor, cfg RemoteShardConfig) *RemoteShard {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &RemoteShard{
		base: strings.TrimSuffix(addr, "/"),
		view: view,
		desc: desc,
		hc:   newShardTransportClient(),
		cfg:  cfg,
	}
}

// Close releases the client's idle connections. The remote server is NOT
// shut down — it belongs to its own process.
func (rs *RemoteShard) Close() { rs.hc.CloseIdleConnections() }

// encodedRequest is one match request translated to the wire: its full
// body, written straight from the staged projection the request retains
// into a pooled buffer (outBody). Replicas of one shard share a single
// encodedRequest — they hold the same view and descriptor — so failover
// resends the same body; close gives it back once the attempts are over.
type encodedRequest struct {
	req  MatchRequest // the header the body was written with
	full *outBody
}

// close lets go of the request's hold on its body.
func (e *encodedRequest) close() { e.full.unref() }

// maxPooledBody is the largest body buffer, in bytes, that goes back to a
// pool; a larger one is left to the collector. Real match bodies are tens
// of KB.
const maxPooledBody = 1 << 20

// outBody is a full request body in a pooled buffer, with the scratch it
// was written through. Every send reads it through a bodyReader of its
// own, and net/http's transport may close that reader after RoundTrip has
// returned, so the buffer goes back only when the request has let go of it
// and every reader has been closed, whichever comes last.
type outBody struct {
	b    []byte
	sc   scratch
	refs atomic.Int32
}

var outBodyPool = sync.Pool{New: func() any { return new(outBody) }}

// reader returns a new reader over the body for one send.
func (ob *outBody) reader() *bodyReader {
	ob.refs.Add(1)
	br := &bodyReader{ob: ob}
	br.Reset(ob.b)
	return br
}

func (ob *outBody) unref() {
	if ob.refs.Add(-1) == 0 && cap(ob.b) <= maxPooledBody {
		outBodyPool.Put(ob)
	}
}

// bodyReader is one send's reader over an outBody; Close lets go of the
// body once.
type bodyReader struct {
	bytes.Reader
	ob     *outBody
	closed atomic.Bool
}

func (br *bodyReader) Close() error {
	if br.closed.CompareAndSwap(false, true) {
		br.ob.unref()
	}
	return nil
}

// encode translates one request to the wire and writes its full body, so
// the encode timer prices the real serialization work. With a staged
// projection — the router's pre-pass path — the body ships the projected
// candidates and clusters in local-ID space and the remote shard runs
// generation only; the zero Staged asks for the remote shard's full
// pipeline. The caller closes the request when its attempts are over.
func (rs *RemoteShard) encode(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged serve.Staged) (*encodedRequest, error) {
	if personal == nil || personal.Root() == nil {
		return nil, fmt.Errorf("shardrpc: nil personal schema")
	}
	start := time.Now()
	_, esp := trace.StartSpan(ctx, "rpc.encode")
	defer func() {
		esp.End()
		rs.stEncode.Observe(time.Since(start))
	}()
	wopts, err := EncodeOptions(opts)
	if err != nil {
		return nil, err
	}
	enc := &encodedRequest{req: MatchRequest{
		Descriptor: rs.desc,
		Personal:   EncodeTree(personal),
		Signature:  serve.Signature(personal, opts),
		Options:    wopts,
	}}
	var src projectionSrc = wireForm{&enc.req} // unstaged: no lists
	if staged.Cands != nil {
		enc.req.HasCandidates, enc.req.HasClusters = true, true
		enc.req.Iterations = staged.Iterations
		src = stagedForm{v: rs.view, cands: staged.Cands, clusters: staged.Clusters}
	}
	ob := outBodyPool.Get().(*outBody)
	b, err := appendRequest(ob.b[:0], &enc.req, src, &ob.sc)
	if err != nil {
		if cap(ob.b) <= maxPooledBody {
			outBodyPool.Put(ob)
		}
		return nil, err
	}
	ob.b = b
	ob.refs.Store(1)
	enc.full = ob
	return enc, nil
}

// send runs one HTTP exchange of the request's body, read through readers
// the transport closes, so its pooled buffer outlives the exchange for as
// long as the transport needs it.
func (rs *RemoteShard) send(cctx, rctx context.Context, full *outBody) (*http.Response, error) {
	rd := full.reader()
	hreq, err := http.NewRequestWithContext(cctx, http.MethodPost, rs.base+"/v1/shard/match", rd)
	if err != nil {
		rd.Close()
		return nil, fmt.Errorf("shardrpc: %w", err)
	}
	hreq.ContentLength = int64(len(full.b))
	hreq.GetBody = func() (io.ReadCloser, error) { return full.reader(), nil }
	hreq.Header.Set("Content-Type", ContentTypeBinary)
	if hv := trace.HeaderValue(rctx); hv != "" {
		hreq.Header.Set(trace.Header, hv)
	}
	return rs.hc.Do(hreq)
}

// post runs one match attempt. transport reports whether the failure
// happened below the protocol (no HTTP response decoded), i.e. whether a
// retry could help.
func (rs *RemoteShard) post(ctx context.Context, enc *encodedRequest) (rep *pipeline.Report, transport bool, err error) {
	cctx := ctx
	if rs.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, rs.cfg.Timeout)
		defer cancel()
	}
	// The round-trip span is the stitch point: its ID crosses in the
	// trace header, the shard parents its whole serve tree to it, and the
	// spans shipped back in the response graft in under it.
	rctx, rsp := trace.StartSpan(cctx, "rpc.roundtrip")
	defer rsp.End()

	rtStart := time.Now()
	resp, err := rs.send(cctx, rctx, enc.full)
	if err != nil {
		rsp.SetAttr("error", err.Error())
		return nil, true, fmt.Errorf("shardrpc: shard %s unreachable: %w", rs.base, err)
	}
	rs.stRoundtrip.Observe(time.Since(rtStart))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rsp.SetAttrInt("status", int64(resp.StatusCode))
		return nil, false, rs.statusError(resp)
	}

	decStart := time.Now()
	_, dsp := trace.StartSpan(rctx, "rpc.decode")
	// The decoded response shares nothing with the bytes it was read from.
	buf := getBuf()
	raw, err := readBody(io.LimitReader(resp.Body, maxMatchBody), resp.ContentLength, *buf)
	var mr *MatchResponse
	if err == nil {
		mr, err = DecodeBinaryMatchResponse(raw)
	}
	*buf = raw
	putBuf(buf)
	if err != nil {
		dsp.End()
		return nil, true, fmt.Errorf("shardrpc: shard %s: bad response: %w", rs.base, err)
	}
	rep, err = DecodeReport(rs.view, mr.Report)
	dsp.End()
	rs.stDecode.Observe(time.Since(decStart))
	if err != nil {
		return nil, false, err
	}
	// Stitch the shard-side spans into the caller's trace. A decode
	// failure here loses observability, never correctness — drop quietly.
	if tr := trace.FromContext(ctx); tr != nil && len(mr.Spans) > 0 {
		if spans, err := DecodeSpans(mr.Spans); err == nil {
			tr.Graft(spans)
		}
	}
	return rep, false, nil
}

// statusError maps a non-200 shard response back onto the error classes
// the serving layer distinguishes.
func (rs *RemoteShard) statusError(resp *http.Response) error {
	var e errorJSON
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e)
	msg := e.Error
	if msg == "" {
		msg = resp.Status
	}
	switch resp.StatusCode {
	case http.StatusGatewayTimeout:
		return fmt.Errorf("shardrpc: shard %s: %s: %w", rs.base, msg, context.DeadlineExceeded)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("shardrpc: shard %s: %s: %w", rs.base, msg, serve.ErrClosed)
	case http.StatusConflict:
		// The shard hosts a different topology (it was reconfigured after
		// the construction-time handshake): a misconfiguration, not a
		// failure — the wrapped sentinel makes the router hard-fail
		// instead of serving degraded merges around wrong answers.
		return fmt.Errorf("shard %s: %s: %w", rs.base, msg, ErrDescriptorMismatch)
	default:
		return fmt.Errorf("shardrpc: shard %s: HTTP %d: %s", rs.base, resp.StatusCode, msg)
	}
}

// Check probes the shard server's health and verifies that it hosts
// exactly the shard this client was built for — the descriptor handshake
// that catches topology mismatches (wrong -shard-of index, different
// partition strategy, different repository) at wiring time.
func (rs *RemoteShard) Check(ctx context.Context) error {
	sr, err := rs.fetchStats(ctx)
	if err != nil {
		return err
	}
	if !sr.Descriptor.Equal(rs.desc) {
		return fmt.Errorf("%w: shard %s hosts %s, want %s", ErrDescriptorMismatch, rs.base, sr.Descriptor, rs.desc)
	}
	return nil
}

// Stats returns the REMOTE shard's snapshot, fetched best-effort with the
// stats timeout, with this client's RPC stage timers folded in; an
// unreachable shard reports just the client-side figures instead of going
// silent.
func (rs *RemoteShard) Stats() serve.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
	defer cancel()
	sr, err := rs.fetchStats(ctx)
	if err != nil {
		return rs.clientStats()
	}
	rs.addClientStages(&sr.Stats)
	return sr.Stats
}

// clientStats is the client-side-only snapshot — the RPC stage timers —
// used for a replica already marked unhealthy, so a stats scrape does not
// pay statsTimeout per dead replica.
func (rs *RemoteShard) clientStats() serve.Stats {
	var st serve.Stats
	rs.addClientStages(&st)
	return st
}

// addClientStages folds the client-side RPC stage timers into a remote
// snapshot. The keys are disjoint from the shard's own pipeline stages,
// so this is a plain insert.
func (rs *RemoteShard) addClientStages(st *serve.Stats) {
	add := func(name string, t *serve.StageTimer) {
		if snap := t.Snapshot(); snap.Count > 0 {
			if st.Stages == nil {
				st.Stages = make(map[string]serve.LatencyStats, 3)
			}
			st.Stages[name] = snap
		}
	}
	add(serve.StageEncode, &rs.stEncode)
	add(serve.StageRoundtrip, &rs.stRoundtrip)
	add(serve.StageDecode, &rs.stDecode)
}

func (rs *RemoteShard) fetchStats(ctx context.Context) (StatsResponse, error) {
	var sr StatsResponse
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.base+"/v1/shard/stats", nil)
	if err != nil {
		return sr, fmt.Errorf("shardrpc: %w", err)
	}
	resp, err := rs.hc.Do(hreq)
	if err != nil {
		return sr, fmt.Errorf("shardrpc: shard %s unreachable: %w", rs.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("shardrpc: shard %s: HTTP %d", rs.base, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&sr); err != nil {
		return sr, fmt.Errorf("shardrpc: shard %s: bad stats response: %w", rs.base, err)
	}
	return sr, nil
}
