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

	// HTTPClient overrides the transport (tests inject
	// httptest.Server.Client()). By default the client builds a dedicated
	// http.Transport sized for replica fan-out — shardConns idle
	// connections per host, bounded dial/TLS timeouts — instead of
	// inheriting the shared default transport's 2 pooled connections per
	// host. No client-level timeout either way; deadlines come from
	// Timeout/ctx.
	HTTPClient *http.Client
}

// shardConns is how many concurrent requests one shard client keeps
// pooled connections for.
const shardConns = 16

// statsTimeout bounds one Stats fetch.
const statsTimeout = 2 * time.Second

// newShardTransportClient builds the dedicated per-shard HTTP client: the
// shared http.DefaultTransport caps idle pooled connections at 2 per
// host, which serializes a concurrent fan-out onto 2 reused connections
// plus fresh handshakes for the rest.
func newShardTransportClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConns:          4 * shardConns,
		MaxIdleConnsPerHost:   shardConns,
		IdleConnTimeout:       90 * time.Second,
	}}
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
// shards like local ones. One response is a protocol turn rather than a
// failure and is handled inside the attempt, on the same endpoint: 428
// (projection-needed — resend with the full projection).
type RemoteShard struct {
	base string
	view *labeling.View
	desc Descriptor
	hc   *http.Client
	cfg  RemoteShardConfig

	// projKnown holds the projection digests this shard has confirmed
	// cached (any 200 to a request that carried the digest). A slim
	// request (ProjectionRef) is sent only for known digests; a 428
	// forgets the digest and retries with the full payload. The set is
	// cleared when it reaches maxKnownProjections.
	projMu    sync.Mutex
	projKnown map[string]struct{}

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
	hc := cfg.HTTPClient
	if hc == nil {
		hc = newShardTransportClient()
	}
	return &RemoteShard{
		base:      strings.TrimSuffix(addr, "/"),
		view:      view,
		desc:      desc,
		hc:        hc,
		cfg:       cfg,
		projKnown: make(map[string]struct{}),
	}
}

// Close releases the client's idle connections. The remote server is NOT
// shut down — it belongs to its own process.
func (rs *RemoteShard) Close() { rs.hc.CloseIdleConnections() }

// maxKnownProjections bounds projKnown. The shard's own projection cache
// holds far fewer entries (serve's projectionCacheSize), so almost every
// remembered digest is stale long before the cap; clearing the set costs at
// most one full-payload resend per digest that was still live.
const maxKnownProjections = 4096

func (rs *RemoteShard) knowsProjection(hash string) bool {
	rs.projMu.Lock()
	defer rs.projMu.Unlock()
	_, ok := rs.projKnown[hash]
	return ok
}

func (rs *RemoteShard) markProjection(hash string) {
	rs.projMu.Lock()
	defer rs.projMu.Unlock()
	if len(rs.projKnown) >= maxKnownProjections {
		clear(rs.projKnown)
	}
	rs.projKnown[hash] = struct{}{}
}

func (rs *RemoteShard) forgetProjection(hash string) {
	rs.projMu.Lock()
	defer rs.projMu.Unlock()
	delete(rs.projKnown, hash)
}

// encodedRequest is one match request translated to the wire, with its
// projection digest and lazily built bodies: the full request and, when a
// projection is staged, the slim one that references it by digest. The
// projection's wire structs are built only for a full body, from the staged
// projection the request retains. Replicas of one shard share a single
// encodedRequest — they hold the same view and descriptor — while each picks
// the body its own projection knowledge calls for. One request's attempts
// run one after another, so the bodies need no lock.
type encodedRequest struct {
	req        MatchRequest // projection payload filled in with the full body
	staged     serve.Staged
	view       *labeling.View
	hash       string // projection digest; "" when no projection is staged
	full, slim []byte
}

// body returns (and keeps) the request in the given shape. slim sets
// ProjectionRef, which leaves the projection payload out of the encoding —
// valid only when hash is non-empty.
func (e *encodedRequest) body(slim bool) ([]byte, error) {
	if slim {
		if e.slim == nil {
			req := e.req
			req.ProjectionRef = true
			e.slim = EncodeBinaryMatchRequest(&req)
		}
		return e.slim, nil
	}
	if e.full == nil {
		if err := e.encodeProjection(); err != nil {
			return nil, err
		}
		e.full = EncodeBinaryMatchRequest(&e.req)
	}
	return e.full, nil
}

// encodeProjection translates the staged projection to wire structs in the
// view's local-ID space, once.
func (e *encodedRequest) encodeProjection() error {
	if e.staged.Cands == nil || e.req.Candidates != nil {
		return nil
	}
	cands, err := EncodeCandidates(e.view, e.staged.Cands)
	if err != nil {
		return err
	}
	clusters, err := EncodeClusters(e.view, e.staged.Clusters)
	if err != nil {
		return err
	}
	e.req.Candidates, e.req.Clusters = cands, clusters
	return nil
}

// encode translates one request to the wire — the projection digest and the
// body the first attempt will most likely send, so the encode timer prices
// the real serialization work. With a staged projection — the router's
// pre-pass path — the projected candidates and clusters ship in local-ID
// space and the remote shard runs generation only; the zero Staged asks for
// the remote shard's full pipeline. The projection's digest is computed once
// per staged digest cell: a repeat that finds it there and goes slim encodes
// no projection at all.
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
	enc := &encodedRequest{
		req: MatchRequest{
			Descriptor: rs.desc,
			Personal:   EncodeTree(personal),
			Signature:  serve.Signature(personal, opts),
			Options:    wopts,
		},
		staged: staged,
		view:   rs.view,
	}
	if staged.Cands != nil {
		enc.req.HasCandidates, enc.req.HasClusters = true, true
		enc.req.Iterations = staged.Iterations
		if staged.Digest != nil {
			if h := staged.Digest.Load(); h != nil {
				enc.hash = *h
			}
		}
		if enc.hash == "" {
			if err := enc.encodeProjection(); err != nil {
				return nil, err
			}
			h := ProjectionDigest(&enc.req)
			enc.hash = h
			if staged.Digest != nil {
				staged.Digest.CompareAndSwap(nil, &h)
			}
		}
		enc.req.ProjectionHash = enc.hash
	}
	if _, err := enc.body(rs.slim(enc)); err != nil {
		return nil, err
	}
	return enc, nil
}

// slim reports whether this shard is known to hold the request's staged
// projection, so the request may reference it instead of shipping it.
func (rs *RemoteShard) slim(enc *encodedRequest) bool {
	return enc.hash != "" && rs.knowsProjection(enc.hash)
}

// send runs one HTTP exchange.
func (rs *RemoteShard) send(cctx, rctx context.Context, body []byte) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(cctx, http.MethodPost, rs.base+"/v1/shard/match", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shardrpc: %w", err)
	}
	hreq.Header.Set("Content-Type", ContentTypeBinary)
	if hv := trace.HeaderValue(rctx); hv != "" {
		hreq.Header.Set(trace.Header, hv)
	}
	return rs.hc.Do(hreq)
}

// post runs one match attempt. transport reports whether the failure
// happened below the protocol (no HTTP response decoded), i.e. whether a
// retry could help. The one protocol turn — 428 projection-needed — is
// resolved inside the attempt, on this same endpoint: it is an answer, not
// a failure, so it must not trigger replica failover or count against
// health.
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

	slim := rs.slim(enc)
	body, err := enc.body(slim)
	if err != nil {
		return nil, false, err
	}
	rtStart := time.Now()
	resp, err := rs.send(cctx, rctx, body)
	if err == nil && resp.StatusCode == http.StatusPreconditionRequired && slim {
		// Projection-needed: the shard no longer holds the projection
		// (restart, eviction). Resend with the payload inlined — same
		// endpoint, same attempt; the full body is built from the retained
		// projection, so it hashes to the digest the slim one carried.
		drain(resp)
		rs.forgetProjection(enc.hash)
		rsp.SetAttr("projection", "resent")
		if body, err = enc.body(false); err != nil {
			return nil, false, err
		}
		resp, err = rs.send(cctx, rctx, body)
	}
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
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxMatchBody))
	var mr *MatchResponse
	if err == nil {
		mr, err = DecodeBinaryMatchResponse(raw)
	}
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
	// The shard served a request that carried the projection digest — it
	// now holds the projection, so later identical shapes can go slim.
	if enc.hash != "" {
		rs.markProjection(enc.hash)
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

// drain discards and closes an HTTP response body that will not be read,
// keeping the connection reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
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
