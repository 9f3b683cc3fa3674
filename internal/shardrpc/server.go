package shardrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync/atomic"

	"bellflower/internal/labeling"
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
// caches and dedupe behave identically to the local topology.
//
// Match requests and responses are binary (Content-Type
// application/x-bellflower-shard); any other or absent Content-Type is
// rejected with 415 rather than guessed at. Error bodies and the stats
// endpoint are JSON.
type ShardServer struct {
	svc   *serve.Service
	view  *labeling.View
	desc  Descriptor
	rec   *trace.Recorder // optional local ring; see SetTraceRecorder
	projc *serve.ProjectionCache

	// Wire traffic counters (match body bytes by direction), surfaced
	// through Stats.
	in, out atomic.Int64
}

// NewShardServer wraps a Service running on view
// (pipeline.NewViewRunnerWithNameIndex) with the shard's descriptor. The
// server resolves projection references out of a content-addressed cache
// charged to the service's memory governor.
func NewShardServer(svc *serve.Service, view *labeling.View, desc Descriptor) *ShardServer {
	return &ShardServer{svc: svc, view: view, desc: desc, projc: svc.NewProjectionCache()}
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

// Stats returns the service's snapshot with the shard server's transport
// counters folded in (wire bytes by direction). The projection cache
// counters are already the service's own.
func (s *ShardServer) Stats() serve.Stats {
	st := s.svc.Stats()
	st.WireBytes.InBinary += s.in.Load()
	st.WireBytes.OutBinary += s.out.Load()
	return st
}

// WritePrometheus renders the shard's full stats snapshot — the service
// counters plus the wire-level figures only the shard server holds
// (bellflower_wire_bytes_total, the projection-cache counters) — in the
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
	body, err := io.ReadAll(r.Body)
	if err != nil {
		fail(dsp, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	s.in.Add(int64(len(body)))
	req, err := DecodeBinaryMatchRequest(body)
	if err != nil {
		fail(dsp, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// A descriptor mismatch means the caller partitioned differently (or
	// holds a different repository): serving would return mappings in the
	// wrong ID space. 409, not 400 — the request is well-formed, the
	// topologies disagree.
	if !req.Descriptor.Equal(s.desc) {
		fail(dsp, http.StatusConflict,
			fmt.Sprintf("descriptor mismatch: caller expects %s, this server hosts %s", req.Descriptor, s.desc))
		return
	}
	personal, err := DecodeTree(req.Personal)
	if err != nil {
		fail(dsp, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := DecodeOptions(req.Options)
	if err != nil {
		fail(dsp, http.StatusBadRequest, err.Error())
		return
	}
	// Integrity: the canonical request signature must survive the codec
	// round trip, otherwise the shard would compute (and cache) a subtly
	// different request than the router merged.
	if req.Signature != "" {
		if got := serve.Signature(personal, opts); got != req.Signature {
			fail(dsp, http.StatusBadRequest,
				fmt.Sprintf("request signature mismatch after decode: got %q, want %q", got, req.Signature))
			return
		}
	}

	staged, status, msg := s.stagedFor(req, personal)
	if status != 0 {
		fail(dsp, status, msg)
		return
	}
	dsp.End()

	mctx, msp := trace.StartSpan(ctx, "match")
	rep, err := s.svc.MatchStaged(mctx, personal, opts, staged)
	if err != nil {
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
	b := EncodeBinaryMatchResponse(&resp)
	s.out.Add(int64(len(b)))
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// stagedFor resolves what the request stages: a projection reference out of
// the projection cache, an inlined projection by decoding (and caching) it,
// the zero Staged when the request asks for the full pipeline. A non-zero
// status is the rejection to answer with.
func (s *ShardServer) stagedFor(req *MatchRequest, personal *schema.Tree) (staged serve.Staged, status int, msg string) {
	if req.ProjectionRef {
		// The request references its projection by content address instead
		// of shipping it. Resolve or ask for the payload — 428 tells the
		// client to retry once with the projection inlined; it is a
		// protocol turn, not a failure, so clients neither fail over nor
		// count it against replica health.
		if req.ProjectionHash == "" {
			return staged, http.StatusBadRequest, "projection reference without projection hash"
		}
		var ok bool
		if staged, ok = s.projc.Get(req.ProjectionHash); !ok {
			return staged, http.StatusPreconditionRequired,
				fmt.Sprintf("projection-needed: %s is not cached on this shard", req.ProjectionHash)
		}
		// The cached candidates are bound to the structurally identical
		// personal tree of the request that populated the entry; rebind
		// them to THIS request's decoded tree (O(|personal|), slices
		// shared).
		staged.Cands = staged.Cands.Rebind(personal)
		return staged, 0, ""
	}
	if req.HasCandidates != req.HasClusters {
		return staged, http.StatusBadRequest, "candidates and clusters must be staged together"
	}
	// A full payload carrying a content address must actually hash to it —
	// self-verifying, so a corrupt or mislabelled projection is rejected
	// instead of cached under the wrong key.
	if req.ProjectionHash != "" {
		if got := ProjectionDigest(req); got != req.ProjectionHash {
			return staged, http.StatusBadRequest,
				fmt.Sprintf("projection digest mismatch: payload hashes to %s, request claims %s", got, req.ProjectionHash)
		}
	}
	if !req.HasCandidates {
		return staged, 0, ""
	}
	var err error
	staged.Iterations = req.Iterations
	if staged.Cands, err = DecodeCandidates(s.view, personal, req.Candidates); err != nil {
		return staged, http.StatusBadRequest, err.Error()
	}
	if staged.Clusters, err = DecodeClusters(s.view, req.Clusters); err != nil {
		return staged, http.StatusBadRequest, err.Error()
	}
	if req.ProjectionHash != "" {
		s.projc.Put(req.ProjectionHash, staged)
	}
	return staged, 0, ""
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
