package main

import (
	"bytes"
	"encoding/json"
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
// else — a 500, a crash — is a finding. Every body is posted twice: a 200
// the second time comes from the alias index (the bytes are not decoded),
// and must be the first answer byte for byte, as must a repeated 400 or
// 413.
//
// The repository is small, with small trees, and personal schemas are
// capped at 4 nodes, so even a body that asks for the most mappings it can
// (top_n 1000, δ 0) stays cheap; the short default timeout bounds the rest.
func FuzzMatchBody(f *testing.F) {
	h := fuzzServer(f)

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
		rec := post(h, "/v1/match", body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusGatewayTimeout:
			return // the run goes on and may be cached by the repeat
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		sameAnswer(t, body, rec, post(h, "/v1/match", body))
	})
}

// post sends body to path through h.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// sameAnswer fails t unless the repeat answered body with the first
// answer's status and bytes.
func sameAnswer(t *testing.T, body string, first, repeat *httptest.ResponseRecorder) {
	t.Helper()
	if repeat.Code != first.Code || !bytes.Equal(repeat.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("body %q answered %d, then %d:\n first: %s\nrepeat: %s", body, first.Code, repeat.Code, first.Body, repeat.Body)
	}
}

// fuzzServer is the daemon's routes over the fuzzers' small repository.
func fuzzServer(f *testing.F) http.Handler {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes, cfg.MeanTreeSize, cfg.Seed = 120, 6, 7
	repo, err := bellflower.Synthetic(cfg)
	if err != nil {
		f.Fatal(err)
	}
	svcCfg := bellflower.ServiceConfig{Workers: 2, MaxSchemaNodes: 4, DefaultTimeout: 200 * time.Millisecond}
	srv := newServer(repo, "synthetic", svcCfg, 1, bellflower.PartitionClustered, "", newQuietLogger())
	f.Cleanup(srv.closeNow)
	return srv.routes()
}

// FuzzBatchBody posts arbitrary bytes to /v1/match/batch over the same
// repository and config as FuzzMatchBody. The batch itself is a 200, 400
// (bad body, empty batch) or 413 (too large, too many entries); a 200 must
// be valid JSON — the renderings are spliced into it verbatim — with one
// result per request, each with a status a single match could have: 200,
// 400, 413 or 504. Unless an entry timed out, the batch is posted again —
// when every element was answered 200 the repeat comes from the alias
// index — and must get the same bytes; and each element, posted alone to
// /v1/match, must get its entry's status and result or error.
func FuzzBatchBody(f *testing.F) {
	h := fuzzServer(f)

	// The README's batch example, literally and filled in.
	f.Add(`{"requests":[{...},{...}]}`)
	f.Add(`{"requests":[{"personal":"book(title,author)","options":{"delta":0.6,"top_n":5}},{"personal":"customer(name,email)"}]}`)
	// An entry whose rendering spans many lines, beside a failing entry and
	// a duplicate.
	f.Add(`{"requests":[{"personal":"book(title,author)","options":{"delta":0,"top_n":10}},{"personal":"((("},{"personal":"book(title,author)","options":{"delta":0,"top_n":10}}]}`)

	f.Fuzz(func(t *testing.T, body string) {
		rec := post(h, "/v1/match/batch", body)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			sameAnswer(t, body, rec, post(h, "/v1/match/batch", body))
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("invalid JSON for body %q: %s", body, rec.Body)
		}
		var req struct{ Requests []json.RawMessage }
		var resp struct {
			Results []struct {
				Result json.RawMessage
				Error  string
				Status int
			}
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("a 200 for a body encoding/json rejects (%v): %q", err, body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(req.Requests) {
			t.Fatalf("%d results for %d requests in %q", len(resp.Results), len(req.Requests), body)
		}
		for i, r := range resp.Results {
			switch r.Status {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			case http.StatusGatewayTimeout:
				return // the run goes on and may be cached by a repeat
			default:
				t.Fatalf("entry %d: status %d for body %q: %s", i, r.Status, body, rec.Body)
			}
		}
		sameAnswer(t, body, rec, post(h, "/v1/match/batch", body))
		for i, r := range resp.Results {
			alone := post(h, "/v1/match", string(req.Requests[i]))
			var ej errorJSON
			if alone.Code != http.StatusOK {
				_ = json.Unmarshal(alone.Body.Bytes(), &ej)
			}
			result := bytes.TrimSuffix(alone.Body.Bytes(), []byte("\n"))
			if alone.Code != r.Status || alone.Code == http.StatusOK && !bytes.Equal(result, r.Result) || ej.Error != r.Error {
				t.Fatalf("entry %d of %q answered %d %q %s in the batch, %d alone: %s",
					i, body, r.Status, r.Error, r.Result, alone.Code, alone.Body)
			}
		}
	})
}
