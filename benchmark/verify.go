package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"bellflower"
)

// scanResponse checks every match result in a /v1/match or /v1/match/batch
// response body without building a document tree: each result must carry at
// most topN mappings in non-increasing delta, must not be marked
// incomplete, and — in a batch — must have status 200. It returns how many
// results passed and how many failed.
//
// A full JSON decode of a 64-entry batch (≈600 KB) costs the single
// closed-loop client about as long as the daemon needs to answer it, which
// would halve the load the daemon sees; the scan looks only at the three
// keys it needs. The sampled responses get the full decode in verifySample.
func scanResponse(body []byte, batch bool) (ok, failed int) {
	var (
		deltas  int
		last    = math.Inf(1)
		bad     bool
		closeAt = func(status int) {
			if bad || status != 200 || deltas > topN {
				failed++
			} else {
				ok++
			}
			deltas, last, bad = 0, math.Inf(1), false
		}
	)
	for p := 0; ; {
		q := bytes.IndexByte(body[p:], '"')
		if q < 0 {
			break
		}
		p += q + 1
		rest := body[p:]
		switch {
		case bytes.HasPrefix(rest, []byte(`delta"`)):
			v, isKey := keyValue(rest[len(`delta"`):])
			if !isKey {
				continue
			}
			d, err := strconv.ParseFloat(string(v), 64)
			if err != nil || d > last {
				bad = true
			}
			last = d
			deltas++
		case bytes.HasPrefix(rest, []byte(`incomplete"`)):
			if v, isKey := keyValue(rest[len(`incomplete"`):]); isKey && string(v) == "true" {
				bad = true
			}
		case batch && bytes.HasPrefix(rest, []byte(`status"`)):
			v, isKey := keyValue(rest[len(`status"`):])
			if !isKey {
				continue
			}
			status, err := strconv.Atoi(string(v))
			if err != nil {
				status = 0
			}
			closeAt(status)
		}
	}
	if !batch {
		closeAt(200) // the HTTP status was checked by the caller
	}
	return ok, failed
}

// keyValue reads `: <scalar>` after a quoted key and returns the scalar's
// bytes. isKey is false when no colon follows, i.e. the quoted text was a
// string value, not a key.
func keyValue(b []byte) (v []byte, isKey bool) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	if i == len(b) || b[i] != ':' {
		return nil, false
	}
	i++
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	j := i
	for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' && b[j] != ' ' && b[j] != '\n' && b[j] != '\r' && b[j] != '\t' {
		j++
	}
	return b[i:j], true
}

// The fields of the daemon's match response that verification reads.
type matchResponse struct {
	Mappings []struct {
		Delta float64 `json:"delta"`
		Pairs []struct {
			Personal   string `json:"personal"`
			Repository string `json:"repository"`
		} `json:"pairs"`
	} `json:"mappings"`
	Incomplete bool `json:"incomplete"`
}

type batchResponse struct {
	Results []struct {
		Result *matchResponse `json:"result"`
		Status int            `json:"status"`
	} `json:"results"`
}

// reference answers requests in-process with bellflower.NewMatcher over the
// same repository the daemons serve; answers are cached per request index.
type reference struct {
	matcher *bellflower.Matcher
	reqs    []request
	cache   map[int]*bellflower.Report
	trees   map[int]*bellflower.Tree
}

func newReference(reqs []request) (*reference, error) {
	repo, err := servedRepository()
	if err != nil {
		return nil, err
	}
	return &reference{
		matcher: bellflower.NewMatcher(repo),
		reqs:    reqs,
		cache:   make(map[int]*bellflower.Report),
		trees:   make(map[int]*bellflower.Tree),
	}, nil
}

// check compares one decoded daemon response with the in-process answer to
// request i: same number of mappings, same node paths pair by pair, delta
// within 1e-9.
func (r *reference) check(i int, got *matchResponse) error {
	want, ok := r.cache[i]
	if !ok {
		tree, err := bellflower.ParseSchema(r.reqs[i].Spec)
		if err != nil {
			return err
		}
		if want, err = r.matcher.Match(tree, r.reqs[i].pipelineOptions()); err != nil {
			return err
		}
		r.cache[i], r.trees[i] = want, tree
	}
	if got == nil {
		return fmt.Errorf("request %d: no result", i)
	}
	if got.Incomplete {
		return fmt.Errorf("request %d: incomplete report", i)
	}
	if len(got.Mappings) != len(want.Mappings) {
		return fmt.Errorf("request %d (%s): %d mappings, in-process run has %d",
			i, r.reqs[i].Spec, len(got.Mappings), len(want.Mappings))
	}
	nodes := r.trees[i].Nodes()
	for m, wm := range want.Mappings {
		gm := got.Mappings[m]
		if math.Abs(gm.Delta-wm.Score.Delta) > 1e-9 {
			return fmt.Errorf("request %d mapping %d: delta %v, in-process run has %v", i, m, gm.Delta, wm.Score.Delta)
		}
		if len(gm.Pairs) != len(wm.Images) {
			return fmt.Errorf("request %d mapping %d: %d pairs, want %d", i, m, len(gm.Pairs), len(wm.Images))
		}
		for p, img := range wm.Images {
			if gm.Pairs[p].Personal != nodes[p].PathString() || gm.Pairs[p].Repository != img.PathString() {
				return fmt.Errorf("request %d mapping %d pair %d: %s→%s, in-process run has %s→%s", i, m, p,
					gm.Pairs[p].Personal, gm.Pairs[p].Repository, nodes[p].PathString(), img.PathString())
			}
		}
	}
	return nil
}

// verifySample decodes one retained response body in full and checks every
// result in it against the in-process reference. It returns the number of
// results that did not verify and the first error.
func (r *reference) verifySample(o op, body []byte) (failed int, first error) {
	note := func(err error) {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if len(o.reqs) == 1 {
		var got matchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return 1, fmt.Errorf("request %d: %w", o.reqs[0], err)
		}
		note(r.check(o.reqs[0], &got))
		return failed, first
	}
	var got batchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return len(o.reqs), fmt.Errorf("batch: %w", err)
	}
	if len(got.Results) != len(o.reqs) {
		return len(o.reqs), fmt.Errorf("batch: %d results for %d entries", len(got.Results), len(o.reqs))
	}
	for e, i := range o.reqs {
		note(r.check(i, got.Results[e].Result))
	}
	return failed, first
}
