package shardrpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// The binary wire codec — the only codec /v1/shard/match speaks. The hot
// match payloads (candidate sets, translated clusters, ranked reports) are
// dense arrays of small local IDs and float64s, which JSON inflates 5–10×.
// This codec writes the wire structs as length-prefixed binary: uvarints
// for counts and IDs, zig-zag varints for signed integers, fixed 8-byte
// little-endian bits for float64s, and uvarint-length-prefixed UTF-8 for
// strings.
//
// The codec is a pure transport: it encodes and decodes the wire structs
// (MatchRequest, MatchResponse), so everything downstream of the parse —
// descriptor verification, signature checks, Decode* semantics — sees
// plain structs, and decode(binary(x)) equals decode(json(x)) structurally
// for every request the client can build (pinned by FuzzShardWire, which
// keeps the structs' JSON tags as its reference encoding).
//
// Requests and responses carry ContentTypeBinary; the shard answers any
// other or absent Content-Type with 415 (Unsupported Media Type) rather
// than guessing. Error bodies and /v1/shard/stats are JSON. The first body
// byte is a version, so the format can evolve without a new content type.

// ContentTypeBinary is the match request and response media type.
const ContentTypeBinary = "application/x-bellflower-shard"

// binaryVersion is the first byte of every binary body. Version 2 dropped
// the options' generation worker-count varint; version 3 the cluster
// config's similarity bias and the clusters' per-element similarities;
// version 4 the options' search-algorithm varint and the cluster config's
// seeding and seed-stride varints.
const binaryVersion = 4

// binWriter accumulates the binary encoding. Slices are written as
// uvarint(len+1) with 0 meaning nil, so the decoder reproduces the
// encoder's nil-vs-empty distinction exactly.
type binWriter struct {
	b []byte
}

func (w *binWriter) u8(v byte)        { w.b = append(w.b, v) }
func (w *binWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *binWriter) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *binWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *binWriter) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}
func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// slice writes the nil-aware length prefix and returns the element count
// to emit (callers loop themselves, keeping element layout local).
func (w *binWriter) slice(n int, isNil bool) {
	if isNil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(n) + 1)
}

func (w *binWriter) i32s(v []int32) {
	w.slice(len(v), v == nil)
	for _, x := range v {
		w.varint(int64(x))
	}
}
func (w *binWriter) ints(v []int) {
	w.slice(len(v), v == nil)
	for _, x := range v {
		w.varint(int64(x))
	}
}
func (w *binWriter) f64s(v []float64) {
	w.slice(len(v), v == nil)
	for _, x := range v {
		w.f64(x)
	}
}
func (w *binWriter) u64s(v []uint64) {
	w.slice(len(v), v == nil)
	for _, x := range v {
		w.uvarint(x)
	}
}

// binReader consumes a binary body with a latched error, so decode code
// reads linearly and checks once.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("shardrpc: binary: "+format, args...)
	}
}

func (r *binReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bool() bool { return r.u8() != 0 }

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated float64 at byte %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes overruns body at byte %d", n, r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// slice reads the nil-aware length prefix: (count, present). A count is
// bounded by the remaining bytes (every element costs at least one byte)
// so a corrupt prefix cannot drive a giant allocation.
func (r *binReader) slice() (int, bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, false
	}
	n := int(v - 1)
	if n > len(r.b)-r.off {
		r.fail("slice of %d elements overruns body at byte %d", n, r.off)
		return 0, false
	}
	return n, true
}

func (r *binReader) i32s() []int32 {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(r.varint())
	}
	return v
}
func (r *binReader) ints() []int {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(r.varint())
	}
	return v
}
func (r *binReader) f64s() []float64 {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.f64()
	}
	return v
}
func (r *binReader) u64s() []uint64 {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.uvarint()
	}
	return v
}

// --- composite sections ---

func (w *binWriter) descriptor(d Descriptor) {
	w.varint(int64(d.Shard))
	w.varint(int64(d.NumShards))
	w.str(d.Strategy)
	w.ints(d.TreeIDs)
	w.varint(int64(d.RepoNodes))
	w.str(d.RepoHash)
}

func (r *binReader) descriptor() Descriptor {
	return Descriptor{
		Shard:     int(r.varint()),
		NumShards: int(r.varint()),
		Strategy:  r.str(),
		TreeIDs:   r.ints(),
		RepoNodes: int(r.varint()),
		RepoHash:  r.str(),
	}
}

func (w *binWriter) tree(t WireTree) {
	w.str(t.Name)
	w.slice(len(t.Nodes), t.Nodes == nil)
	for _, n := range t.Nodes {
		w.varint(int64(n.Depth))
		w.bool(n.Attr)
		w.str(n.Name)
		w.str(n.Type)
	}
}

func (r *binReader) tree() WireTree {
	t := WireTree{Name: r.str()}
	n, ok := r.slice()
	if !ok {
		return t
	}
	t.Nodes = make([]WireNode, n)
	for i := range t.Nodes {
		t.Nodes[i] = WireNode{
			Depth: int(r.varint()),
			Attr:  r.bool(),
			Name:  r.str(),
			Type:  r.str(),
		}
	}
	return t
}

func (w *binWriter) options(o WireOptions) {
	w.f64(o.Alpha)
	w.f64(o.K)
	w.f64(o.Threshold)
	w.f64(o.MinSim)
	w.varint(int64(o.TopN))
	w.varint(int64(o.Variant))
	w.str(o.Matcher)
	w.str(o.Structure)
	w.f64(o.StructureWeight)
	var flags byte
	if o.IncludePartials {
		flags |= 1
	}
	if o.OrderClusters {
		flags |= 2
	}
	if o.Agglomerative {
		flags |= 4
	}
	if o.AdaptiveTopN {
		flags |= 8
	}
	w.u8(flags)
	w.bool(o.ClusterConfig != nil)
	if cc := o.ClusterConfig; cc != nil {
		w.varint(int64(cc.JoinThreshold))
		w.varint(int64(cc.RemoveBelow))
		w.varint(int64(cc.SplitAbove))
		w.varint(int64(cc.MaxIterations))
		w.f64(cc.Stability)
	}
}

func (r *binReader) options() WireOptions {
	o := WireOptions{
		Alpha:     r.f64(),
		K:         r.f64(),
		Threshold: r.f64(),
		MinSim:    r.f64(),
		TopN:      int(r.varint()),
		Variant:   int(r.varint()),
		Matcher:   r.str(),
		Structure: r.str(),
	}
	o.StructureWeight = r.f64()
	flags := r.u8()
	o.IncludePartials = flags&1 != 0
	o.OrderClusters = flags&2 != 0
	o.Agglomerative = flags&4 != 0
	o.AdaptiveTopN = flags&8 != 0
	if r.bool() {
		o.ClusterConfig = &WireClusterConfig{
			JoinThreshold: int(r.varint()),
			RemoveBelow:   int(r.varint()),
			SplitAbove:    int(r.varint()),
			MaxIterations: int(r.varint()),
			Stability:     r.f64(),
		}
	}
	return o
}

// projection writes the projected pre-pass payload — exactly the fields
// ProjectionDigest hashes, so the digest is a pure function of this
// section's bytes.
func (w *binWriter) projection(req *MatchRequest) {
	w.bool(req.HasCandidates)
	w.slice(len(req.Candidates), req.Candidates == nil)
	for _, s := range req.Candidates {
		w.i32s(s.Local)
		w.f64s(s.Sims)
	}
	w.bool(req.HasClusters)
	w.slice(len(req.Clusters), req.Clusters == nil)
	for _, c := range req.Clusters {
		w.varint(int64(c.ID))
		w.varint(int64(c.TreeID))
		w.varint(int64(c.Medoid))
		w.i32s(c.Local)
		w.u64s(c.Masks)
	}
	w.varint(int64(req.Iterations))
}

func (r *binReader) projection(req *MatchRequest) {
	req.HasCandidates = r.bool()
	if n, ok := r.slice(); ok {
		req.Candidates = make([]WireCandidateSet, n)
		for i := range req.Candidates {
			req.Candidates[i] = WireCandidateSet{Local: r.i32s(), Sims: r.f64s()}
		}
	}
	req.HasClusters = r.bool()
	if n, ok := r.slice(); ok {
		req.Clusters = make([]WireCluster, n)
		for i := range req.Clusters {
			req.Clusters[i] = WireCluster{
				ID:     int(r.varint()),
				TreeID: int(r.varint()),
				Medoid: int32(r.varint()),
				Local:  r.i32s(),
				Masks:  r.u64s(),
			}
		}
	}
	req.Iterations = int(r.varint())
}

func (w *binWriter) score(s WireScore) {
	w.f64(s.Delta)
	w.f64(s.Sim)
	w.f64(s.Path)
	w.varint(int64(s.Et))
}

func (r *binReader) score() WireScore {
	return WireScore{Delta: r.f64(), Sim: r.f64(), Path: r.f64(), Et: int(r.varint())}
}

func (w *binWriter) report(rep WireReport) {
	w.varint(int64(rep.Variant))
	w.varint(int64(rep.MappingElements))
	w.varint(int64(rep.Clusters))
	w.varint(int64(rep.UsefulClusters))
	w.f64(rep.AvgElementsPerUsefulCluster)
	w.ints(rep.ClusterSizes)
	w.varint(int64(rep.Iterations))
	w.f64(rep.Counters.SearchSpace)
	w.varint(rep.Counters.PartialMappings)
	w.varint(rep.Counters.CompleteMappings)
	w.varint(rep.Counters.Found)
	w.varint(int64(rep.Counters.UsefulClusters))
	w.slice(len(rep.Mappings), rep.Mappings == nil)
	for _, m := range rep.Mappings {
		w.i32s(m.Local)
		w.f64s(m.Sims)
		w.score(m.Score)
		w.varint(int64(m.ClusterID))
	}
	w.slice(len(rep.Partials), rep.Partials == nil)
	for _, p := range rep.Partials {
		w.i32s(p.Local)
		w.f64s(p.Sims)
		w.uvarint(p.CoveredMask)
		w.varint(int64(p.Covered))
		w.score(p.Score)
		w.varint(int64(p.ClusterID))
	}
	w.varint(rep.MatchNS)
	w.varint(rep.ClusterNS)
	w.varint(rep.GenNS)
	w.varint(int64(rep.FirstGoodAfter))
}

func (r *binReader) report() WireReport {
	rep := WireReport{
		Variant:         int(r.varint()),
		MappingElements: int(r.varint()),
		Clusters:        int(r.varint()),
		UsefulClusters:  int(r.varint()),
	}
	rep.AvgElementsPerUsefulCluster = r.f64()
	rep.ClusterSizes = r.ints()
	rep.Iterations = int(r.varint())
	rep.Counters.SearchSpace = r.f64()
	rep.Counters.PartialMappings = r.varint()
	rep.Counters.CompleteMappings = r.varint()
	rep.Counters.Found = r.varint()
	rep.Counters.UsefulClusters = int(r.varint())
	if n, ok := r.slice(); ok {
		rep.Mappings = make([]WireMapping, n)
		for i := range rep.Mappings {
			rep.Mappings[i] = WireMapping{
				Local: r.i32s(),
				Sims:  r.f64s(),
				Score: r.score(),
			}
			rep.Mappings[i].ClusterID = int(r.varint())
		}
	}
	if n, ok := r.slice(); ok {
		rep.Partials = make([]WirePartial, n)
		for i := range rep.Partials {
			rep.Partials[i] = WirePartial{
				Local:       r.i32s(),
				Sims:        r.f64s(),
				CoveredMask: r.uvarint(),
				Covered:     int(r.varint()),
				Score:       r.score(),
			}
			rep.Partials[i].ClusterID = int(r.varint())
		}
	}
	rep.MatchNS = r.varint()
	rep.ClusterNS = r.varint()
	rep.GenNS = r.varint()
	rep.FirstGoodAfter = int(r.varint())
	return rep
}

func (w *binWriter) spans(spans []WireSpan) {
	w.slice(len(spans), spans == nil)
	for _, s := range spans {
		w.str(s.ID)
		w.str(s.Parent)
		w.str(s.Name)
		w.varint(s.StartNS)
		w.varint(s.DurNS)
		w.slice(len(s.Attrs), s.Attrs == nil)
		for _, a := range s.Attrs {
			w.str(a.Key)
			w.str(a.Value)
		}
	}
}

func (r *binReader) spans() []WireSpan {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	spans := make([]WireSpan, n)
	for i := range spans {
		spans[i] = WireSpan{
			ID:      r.str(),
			Parent:  r.str(),
			Name:    r.str(),
			StartNS: r.varint(),
			DurNS:   r.varint(),
		}
		if an, ok := r.slice(); ok {
			spans[i].Attrs = make([]WireAttr, an)
			for j := range spans[i].Attrs {
				spans[i].Attrs[j] = WireAttr{Key: r.str(), Value: r.str()}
			}
		}
	}
	return spans
}

// --- top-level bodies ---

// request flag bits (byte 2 of a binary match request).
const (
	binFlagProjectionRef = 1 << 0
)

// EncodeBinaryMatchRequest renders a match request in the binary wire
// format. The result decodes back to a structurally identical
// MatchRequest (including nil-vs-empty slice distinctions).
func EncodeBinaryMatchRequest(req *MatchRequest) []byte {
	w := &binWriter{b: make([]byte, 0, 256)}
	w.u8(binaryVersion)
	var flags byte
	if req.ProjectionRef {
		flags |= binFlagProjectionRef
	}
	w.u8(flags)
	w.descriptor(req.Descriptor)
	w.tree(req.Personal)
	w.str(req.Signature)
	w.str(req.ProjectionHash)
	w.options(req.Options)
	if !req.ProjectionRef {
		w.projection(req)
	}
	return w.b
}

// DecodeBinaryMatchRequest parses a binary match request body.
func DecodeBinaryMatchRequest(b []byte) (*MatchRequest, error) {
	r := &binReader{b: b}
	if v := r.u8(); r.err == nil && v != binaryVersion {
		return nil, fmt.Errorf("shardrpc: binary: unsupported wire version %d (want %d)", v, binaryVersion)
	}
	flags := r.u8()
	req := &MatchRequest{
		Descriptor:     r.descriptor(),
		Personal:       r.tree(),
		Signature:      r.str(),
		ProjectionHash: r.str(),
		Options:        r.options(),
		ProjectionRef:  flags&binFlagProjectionRef != 0,
	}
	if !req.ProjectionRef {
		r.projection(req)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("shardrpc: binary: %d trailing bytes after match request", len(b)-r.off)
	}
	return req, nil
}

// EncodeBinaryMatchResponse renders a match response in the binary wire
// format.
func EncodeBinaryMatchResponse(resp *MatchResponse) []byte {
	w := &binWriter{b: make([]byte, 0, 256)}
	w.u8(binaryVersion)
	w.report(resp.Report)
	w.spans(resp.Spans)
	return w.b
}

// DecodeBinaryMatchResponse parses a binary match response body.
func DecodeBinaryMatchResponse(b []byte) (*MatchResponse, error) {
	r := &binReader{b: b}
	if v := r.u8(); r.err == nil && v != binaryVersion {
		return nil, fmt.Errorf("shardrpc: binary: unsupported wire version %d (want %d)", v, binaryVersion)
	}
	resp := &MatchResponse{Report: r.report(), Spans: r.spans()}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("shardrpc: binary: %d trailing bytes after match response", len(b)-r.off)
	}
	return resp, nil
}

// ProjectionDigest content-addresses a request's projected pre-pass
// payload: a hash over the BINARY encoding of (HasCandidates, Candidates,
// HasClusters, Clusters, Iterations). Both sides compute it from wire
// structs. The shard recomputes the digest over every full payload it
// caches, so a corrupt or mislabelled projection is rejected (400) instead
// of poisoning the cache.
func ProjectionDigest(req *MatchRequest) string {
	// Canonicalize the top-level nil-vs-empty distinction before hashing:
	// an empty-but-non-nil slice (a zero-cluster projection) and nil — what
	// the structs' omitempty JSON reference form decodes to — must hash
	// identically. The flags still distinguish "no projection" from "empty
	// projection".
	c := *req
	if len(c.Candidates) == 0 {
		c.Candidates = nil
	}
	if len(c.Clusters) == 0 {
		c.Clusters = nil
	}
	w := &binWriter{b: make([]byte, 0, 512)}
	w.projection(&c)
	sum := sha256.Sum256(w.b)
	return hex.EncodeToString(sum[:16])
}
