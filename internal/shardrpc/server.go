package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"bellflower/internal/labeling"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/trace"
)

// maxMatchBody bounds a shard match request body. Projected candidate sets
// scale with the repository, so the bound is far above the public daemon's
// 1 MiB but still finite — a shard endpoint is internal infrastructure,
// not an open ingress.
const maxMatchBody = 64 << 20

// ShardServer adapts one view-backed Service to the shard wire protocol:
// HandleMatch and HandleStats are the handlers bellflower-server mounts at
// /v1/shard/match and /v1/shard/stats in -shard-of mode. The server
// decodes requests against its own view, verifies the caller's descriptor
// and request signature, and serves through the same Service.MatchStaged an
// in-process router would call — so a remote fan-out's per-shard reports,
// caches and dedupe behave identically to the local topology. A slim
// request (MatchRequest.ProjectionRef) is answered from the service's
// report cache alone (Service.MatchCached), or 428. No router sends one
// any more: the handler stays only because the benchmark's wire ledger
// reads its counters (Stats.ProjectionCacheHits/Misses), and those must
// keep a real writer; it goes with them.
//
// Match requests and responses are binary (Content-Type
// application/x-bellflower-shard); any other or absent Content-Type is
// rejected with 415 rather than guessed at. Error bodies and the stats
// endpoint are JSON.
type ShardServer struct {
	svc  *serve.Service
	view *labeling.View
	desc Descriptor
	rec  *trace.Recorder // optional local ring; see SetTraceRecorder

	// Wire traffic counters (match body bytes by direction) and slim
	// requests answered from the report cache or with 428, surfaced
	// through Stats.
	in, out              atomic.Int64
	slimHits, slimMisses atomic.Int64
}

// NewShardServer wraps a Service running on view
// (pipeline.NewViewRunnerWithNameIndex) with the shard's descriptor.
func NewShardServer(svc *serve.Service, view *labeling.View, desc Descriptor) *ShardServer {
	return &ShardServer{svc: svc, view: view, desc: desc}
}

// SetTraceRecorder attaches a local trace ring: every traced match is
// observed into it, so a shard host can serve its own /v1/traces even
// though its spans also ship back to the router. With no recorder set,
// only requests that arrive with an X-Bellflower-Trace header are traced
// (the spans exist solely to be returned). Not safe to call concurrently
// with traffic; wire it up before mounting the handlers.
func (s *ShardServer) SetTraceRecorder(rec *trace.Recorder) { s.rec = rec }

// Service returns the underlying view-backed service (the caller may mount
// additional endpoints — metrics, health — against it).
func (s *ShardServer) Service() *serve.Service { return s.svc }

// Stats returns the service's snapshot with the shard server's own counters
// folded in: wire bytes by direction, and slim requests answered from the
// report cache (ProjectionCacheHits) or with 428 (ProjectionCacheMisses).
func (s *ShardServer) Stats() serve.Stats {
	st := s.svc.Stats()
	st.WireBytes.InBinary += s.in.Load()
	st.WireBytes.OutBinary += s.out.Load()
	st.ProjectionCacheHits += s.slimHits.Load()
	st.ProjectionCacheMisses += s.slimMisses.Load()
	return st
}

// WritePrometheus renders the shard's full stats snapshot — the service
// counters plus the figures only the shard server holds
// (bellflower_wire_bytes_total, the slim-request counters) — in the
// Prometheus text exposition format. The shard daemon's /metrics endpoint
// uses this instead of the bare service snapshot.
func (s *ShardServer) WritePrometheus(w io.Writer) error {
	return serve.WritePrometheus(w, s.Stats(), 1)
}

// Close shuts the underlying service down.
func (s *ShardServer) Close() { s.svc.Close() }

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// matchStatus maps a shard service error onto the protocol's status
// codes. RemoteShard.statusError is its inverse — a new error class added
// here needs a case there (and in the public daemon's matchStatus, which
// maps the same serve errors for end clients) or it degrades to a generic
// 500 across the hop.
func matchStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, serve.ErrSchemaTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, serve.ErrClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// checkContentType accepts only the binary match media type; anything
// else — an absent header included — is a 415, never guessed at.
func checkContentType(r *http.Request) error {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return fmt.Errorf("missing or unparseable Content-Type %q (want %s)", ct, ContentTypeBinary)
	}
	if mt != ContentTypeBinary {
		return fmt.Errorf("unsupported Content-Type %q (want %s)", mt, ContentTypeBinary)
	}
	return nil
}

// HandleMatch serves POST /v1/shard/match. A request arriving with an
// X-Bellflower-Trace header is served under a resumed trace — the shard's
// decode/match/encode spans (and the pipeline spans beneath them) parent
// back to the caller's span and ship home in MatchResponse.Spans, so the
// router stitches ONE tree across the process boundary.
func (s *ShardServer) HandleMatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST required"})
		return
	}
	if err := checkContentType(r); err != nil {
		writeJSON(w, http.StatusUnsupportedMediaType, errorJSON{Error: err.Error()})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxMatchBody)

	ctx := r.Context()
	hv := r.Header.Get(trace.Header)
	var tr *trace.Trace
	var root *trace.Span
	if hv != "" || s.rec != nil {
		ctx, tr, root = trace.Resume(ctx, hv, "shard.serve")
		root.SetAttrInt("shard", int64(s.desc.Shard))
		defer func() {
			root.End() // idempotent; the success path already ended it
			if s.rec != nil {
				s.rec.Observe(tr)
			}
		}()
	}
	fail := func(sp *trace.Span, status int, msg string) {
		sp.SetAttr("error", msg)
		sp.End()
		writeJSON(w, status, errorJSON{Error: msg})
	}

	_, dsp := trace.StartSpan(ctx, "decode")
	buf := getBuf()
	body, err := readBody(r.Body, r.ContentLength, *buf)
	*buf = body
	var d decoded
	status := http.StatusBadRequest
	if err == nil {
		s.in.Add(int64(len(body)))
		status, err = s.decode(body, &d)
	} else {
		err = errors.New("bad request body: " + err.Error())
	}
	// Nothing decoded shares the body's bytes.
	putBuf(buf)
	if err != nil {
		fail(dsp, status, err.Error())
		return
	}
	req, personal, opts := &d.req, d.personal, d.opts
	dsp.End()

	mctx, msp := trace.StartSpan(ctx, "match")
	var rep *pipeline.Report
	if req.ProjectionRef {
		// A slim request asks for the report cached under its signature,
		// or 428 (report-needed). The router only sends full requests;
		// this branch is kept as the one writer of the slim counters the
		// benchmark's wire ledger reads.
		var ok bool
		if rep, ok = s.svc.MatchCached(personal, opts); !ok {
			s.slimMisses.Add(1)
			fail(msp, http.StatusPreconditionRequired,
				fmt.Sprintf("report-needed: %s is not cached on this shard", req.Signature))
			return
		}
		s.slimHits.Add(1)
	} else if rep, err = s.svc.MatchStaged(mctx, personal, opts, d.staged); err != nil {
		fail(msp, matchStatus(err), err.Error())
		return
	}
	msp.End()

	_, ensp := trace.StartSpan(ctx, "encode")
	wr, err := EncodeReport(s.view, rep)
	if err != nil {
		fail(ensp, http.StatusInternalServerError, err.Error())
		return
	}
	ensp.End()

	resp := MatchResponse{Report: wr}
	if tr != nil && hv != "" {
		// End the root before exporting so the stitched tree carries the
		// shard's total serve time; the deferred End is a no-op after this.
		root.End()
		resp.Spans = EncodeSpans(tr.Spans())
	}
	// Write copies the body out, so its buffer goes back at once.
	out := getBuf()
	b := appendResponse((*out)[:0], &resp)
	s.out.Add(int64(len(b)))
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*out = b
	putBuf(out)
}

// decoded is a match request as the shard serves it.
type decoded struct {
	req      MatchRequest // the header and the projection's flags
	personal *schema.Tree
	opts     pipeline.Options
	staged   serve.Staged // the zero Staged unless a projection is staged
}

// decode parses a match request body into d, checking it against this
// shard, and returns the status of a failure. A staged projection is read
// straight into pooled storage on the shard's view; d.staged then holds it
// for the service (serve.Staged's Release).
func (s *ShardServer) decode(body []byte, d *decoded) (int, error) {
	st := getStagedStore(s.view)
	defer func() {
		if d.staged.Cands == nil {
			st.put()
		}
	}()
	r := &binReader{b: body}
	hdr := r.header(&st.sc.ids)
	if r.err != nil {
		return http.StatusBadRequest, errors.New("bad request body: " + r.err.Error())
	}
	d.req = *hdr
	req := &d.req
	// A descriptor mismatch means the caller partitioned differently (or
	// holds a different repository): serving would return mappings in the
	// wrong ID space. 409, not 400 — the request is well-formed, the
	// topologies disagree.
	if !req.Descriptor.Equal(s.desc) {
		return http.StatusConflict, fmt.Errorf("descriptor mismatch: caller expects %s, this server hosts %s", req.Descriptor, s.desc)
	}
	req.Descriptor.TreeIDs = nil // the store's scratch; checked, and not needed again
	var err error
	if d.personal, err = DecodeTree(req.Personal); err != nil {
		return http.StatusBadRequest, err
	}
	if d.opts, err = DecodeOptions(req.Options); err != nil {
		return http.StatusBadRequest, err
	}
	// Integrity: the canonical request signature must survive the codec
	// round trip, otherwise the shard would compute (and cache) a subtly
	// different request than the router merged.
	if req.Signature != "" {
		if got := serve.Signature(d.personal, d.opts); got != req.Signature {
			return http.StatusBadRequest, fmt.Errorf("request signature mismatch after decode: got %q, want %q", got, req.Signature)
		}
	}
	if req.ProjectionRef {
		if req.Signature == "" {
			return http.StatusBadRequest, errors.New("slim request without signature")
		}
		if err := r.end("match request"); err != nil {
			return http.StatusBadRequest, errors.New("bad request body: " + err.Error())
		}
		return 0, nil
	}
	st.personal = d.personal
	err = r.projection(req, st, &st.sc)
	if err == nil {
		err = r.end("match request")
	}
	if err == nil && req.HasCandidates != req.HasClusters {
		err = errors.New("candidates and clusters must be staged together")
	}
	if err != nil {
		return http.StatusBadRequest, errors.New("bad request body: " + err.Error())
	}
	if req.HasCandidates {
		d.staged = st.staged(req.Iterations)
	}
	return 0, nil
}

// maxPresizedBody caps how much of a declared Content-Length readBody
// allocates before any byte arrives. Real match bodies are tens of KB; a
// larger declared length is read as it arrives instead, so a peer that
// declares a huge body and trickles (or never sends) it pins no more than
// this per connection.
const maxPresizedBody = 1 << 20

// bufPool recycles the buffers match bodies are read into, on both sides
// of the hop; getBuf and putBuf take and give back one.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		bufPool.Put(b)
	}
}

// readBody reads a match body into buf's storage, growing it as needed. A
// declared length n up to maxPresizedBody is read into exactly n bytes; an
// unknown length (-1), or a larger one, is read to EOF as the bytes arrive,
// within whatever bound r applies.
func readBody(r io.Reader, n int64, buf []byte) ([]byte, error) {
	if n < 0 || n > maxPresizedBody {
		bb := bytes.NewBuffer(buf[:0])
		_, err := bb.ReadFrom(r)
		return bb.Bytes(), err
	}
	b := grow(&buf, int(n))
	if _, err := io.ReadFull(r, b); err != nil {
		return b, err
	}
	return b, nil
}

// HandleStats serves GET /v1/shard/stats: the shard's instrumentation
// snapshot plus its descriptor (the health-check handshake).
func (s *ShardServer) HandleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "GET required"})
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{Descriptor: s.desc, Stats: s.Stats()})
}
