package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bellflower"
)

// FuzzMatchBody posts arbitrary bytes to /v1/match through the daemon's own
// routes: body decoding, option building, the schema parser and the
// pipeline behind them. Whatever the body, the handler must return, and
// with one of the statuses the API documents for a match: 200, 400 (bad
// body, schema or options), 413 (too large) or 504 (deadline). Anything
// else — a 500, a crash — is a finding.
//
// The repository is small, with small trees, and personal schemas are
// capped at 4 nodes, so even a body that asks for the most mappings it can
// (top_n 1000, δ 0) stays cheap; the short default timeout bounds the rest.
func FuzzMatchBody(f *testing.F) {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes, cfg.MeanTreeSize, cfg.Seed = 120, 6, 7
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		f.Fatal(err)
	}
	svcCfg := bellflower.ServiceConfig{Workers: 2, MaxSchemaNodes: 4, DefaultTimeout: 200 * time.Millisecond}
	srv := newServer(repo, "synthetic", svcCfg, 1, bellflower.PartitionClustered, "", newQuietLogger())
	f.Cleanup(srv.closeNow)
	h := srv.routes()

	// The request bodies the README shows for /v1/match.
	f.Add(`{"personal":"book(title,author)","options":{"delta":0.6,"top_n":5}}`)
	f.Add(`{
  "personal": "book(title,author)",
  "options": {"delta": 0.6, "top_n": 5, "variant": "medium", "timeout_ms": 2000}
}`)
	f.Add(`{"personal":"book(title,author)"}`)
	// Options without top_n: the daemon's default N, never every mapping.
	f.Add(`{"personal":"book(title,author)","options":{"delta":0}}`)
	// A structure weight outside [0,1] used to reach the rescoring stage
	// and panic (HTTP 500).
	f.Add(`{"personal":"book(title,author)","options":{"structure":"path","structure_weight":2}}`)

	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
