package shardrpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
)

// The binary wire codec — the only codec /v1/shard/match speaks. The hot
// match payloads (candidate sets, translated clusters, ranked reports) are
// dense arrays of small local IDs and float64s, which JSON inflates 5–10×.
// This codec writes the wire structs as length-prefixed binary: uvarints
// for counts and IDs, zig-zag varints for signed integers, fixed 8-byte
// little-endian bits for float64s, and uvarint-length-prefixed UTF-8 for
// strings.
//
// The codec is a pure transport over the wire structs (MatchRequest,
// MatchResponse), and decode(binary(x)) equals decode(json(x))
// structurally for every request the client can build (pinned by
// FuzzShardWire, which keeps the structs' JSON tags as its reference
// encoding). A request's projection section is the one exception to
// "structs in, structs out": the client writes it straight from a staged
// projection and the shard reads it straight into pooled storage, through
// the same writer and reader the structs go through (projection.go).
//
// Every body is written in one pass. EncodeBinaryMatchRequest sizes its
// buffer before writing, from projectionSize (the projection is nearly all
// of a full body) plus a generous bound on the header; the client writes
// into a pooled buffer instead. The encoders append to a local slice
// (b = appendX(b, …)) rather than through a pointer, which would pay a GC
// write barrier per value.
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

// --- writers ---
//
// Slices are written as uvarint(len+1) with 0 meaning nil, so the decoder
// reproduces the encoder's nil-vs-empty distinction exactly.

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func varintSize(v int64) int   { return uvarintSize(uint64(v<<1) ^ uint64(v>>63)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendSlice writes the nil-aware length prefix; callers loop over the
// elements themselves, keeping element layout local.
func appendSlice(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func sliceSize(n int, isNil bool) int {
	if isNil {
		return 1
	}
	return uvarintSize(uint64(n) + 1)
}

func appendVarints[T int | int32](b []byte, v []T) []byte {
	b = appendSlice(b, len(v), v == nil)
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func varintsSize[T int | int32](v []T) int {
	n := sliceSize(len(v), v == nil)
	for _, x := range v {
		n += varintSize(int64(x))
	}
	return n
}

func appendF64s(b []byte, v []float64) []byte {
	b = appendSlice(b, len(v), v == nil)
	for _, x := range v {
		b = appendF64(b, x)
	}
	return b
}

func f64sSize(v []float64) int { return sliceSize(len(v), v == nil) + 8*len(v) }

func appendU64s(b []byte, v []uint64) []byte {
	b = appendSlice(b, len(v), v == nil)
	for _, x := range v {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

func u64sSize(v []uint64) int {
	n := sliceSize(len(v), v == nil)
	for _, x := range v {
		n += uvarintSize(x)
	}
	return n
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

func (r *binReader) varint() int64 { return unzigzag(r.uvarint()) }

// unzigzag inverts the zig-zag mapping binary.AppendVarint writes.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// The array readers decode into *buf's storage (grown as needed) with a
// local offset; the loop body is the inlined binary.Uvarint. An absent
// array reads as nil. varints, f64s and u64s read into fresh storage of
// exactly the array's length.

func varintsInto[T int | int32](r *binReader, buf *[]T) []T {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	v := grow(buf, n)
	off := r.off
	for i := range v {
		u, k := binary.Uvarint(r.b[off:])
		if k <= 0 {
			r.fail("bad varint at byte %d", off)
			return v
		}
		v[i] = T(unzigzag(u))
		off += k
	}
	r.off = off
	return v
}

func varints[T int | int32](r *binReader) []T {
	var v []T
	return varintsInto(r, &v)
}

func (r *binReader) f64sInto(buf *[]float64) []float64 {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	if 8*n > len(r.b)-r.off {
		r.fail("truncated float64s at byte %d", r.off)
		return nil
	}
	v := grow(buf, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off+8*i:]))
	}
	r.off += 8 * n
	return v
}

func (r *binReader) f64s() []float64 {
	var v []float64
	return r.f64sInto(&v)
}

func (r *binReader) u64sInto(buf *[]uint64) []uint64 {
	n, ok := r.slice()
	if !ok {
		return nil
	}
	v := grow(buf, n)
	off := r.off
	for i := range v {
		u, k := binary.Uvarint(r.b[off:])
		if k <= 0 {
			r.fail("bad uvarint at byte %d", off)
			return v
		}
		v[i] = u
		off += k
	}
	r.off = off
	return v
}

// --- composite sections ---

func appendDescriptor(b []byte, d Descriptor) []byte {
	b = binary.AppendVarint(b, int64(d.Shard))
	b = binary.AppendVarint(b, int64(d.NumShards))
	b = appendStr(b, d.Strategy)
	b = appendVarints(b, d.TreeIDs)
	b = binary.AppendVarint(b, int64(d.RepoNodes))
	return appendStr(b, d.RepoHash)
}

// descriptor reads a descriptor, its tree IDs into *ids's storage.
func (r *binReader) descriptor(ids *[]int) Descriptor {
	return Descriptor{
		Shard:     int(r.varint()),
		NumShards: int(r.varint()),
		Strategy:  r.str(),
		TreeIDs:   varintsInto(r, ids),
		RepoNodes: int(r.varint()),
		RepoHash:  r.str(),
	}
}

func appendTree(b []byte, t WireTree) []byte {
	b = appendStr(b, t.Name)
	b = appendSlice(b, len(t.Nodes), t.Nodes == nil)
	for _, n := range t.Nodes {
		b = binary.AppendVarint(b, int64(n.Depth))
		b = appendBool(b, n.Attr)
		b = appendStr(b, n.Name)
		b = appendStr(b, n.Type)
	}
	return b
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

func appendOptions(b []byte, o WireOptions) []byte {
	b = appendF64(b, o.Alpha)
	b = appendF64(b, o.K)
	b = appendF64(b, o.Threshold)
	b = appendF64(b, o.MinSim)
	b = binary.AppendVarint(b, int64(o.TopN))
	b = binary.AppendVarint(b, int64(o.Variant))
	b = appendStr(b, o.Matcher)
	b = appendStr(b, o.Structure)
	b = appendF64(b, o.StructureWeight)
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
	b = append(b, flags)
	b = appendBool(b, o.ClusterConfig != nil)
	if cc := o.ClusterConfig; cc != nil {
		b = binary.AppendVarint(b, int64(cc.JoinThreshold))
		b = binary.AppendVarint(b, int64(cc.RemoveBelow))
		b = binary.AppendVarint(b, int64(cc.SplitAbove))
		b = binary.AppendVarint(b, int64(cc.MaxIterations))
		b = appendF64(b, cc.Stability)
	}
	return b
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

// appendProjection writes the projection section, the last of a full
// request body: req's Has* flags and Iterations, and the lists from src.
// Only a staged source fails, on a cluster node outside the shard's view.
func appendProjection(b []byte, req *MatchRequest, src projectionSrc, sc *scratch) ([]byte, error) {
	b = appendBool(b, req.HasCandidates)
	n, present := src.sets()
	b = appendSlice(b, n, !present)
	for i := 0; i < n; i++ {
		local, sims := src.set(i, sc)
		b = appendVarints(b, local)
		b = appendF64s(b, sims)
	}
	b = appendBool(b, req.HasClusters)
	n, present = src.clusterList()
	b = appendSlice(b, n, !present)
	for i := 0; i < n; i++ {
		h, local, masks, err := src.clusterAt(i, sc)
		if err != nil {
			return nil, err
		}
		b = binary.AppendVarint(b, int64(h.id))
		b = binary.AppendVarint(b, int64(h.treeID))
		b = binary.AppendVarint(b, int64(h.medoid))
		b = appendVarints(b, local)
		b = appendU64s(b, masks)
	}
	return binary.AppendVarint(b, int64(req.Iterations)), nil
}

// projectionSize is the exact size of a projection section written from
// req's wire structs.
func projectionSize(req *MatchRequest) int {
	size := 2 + sliceSize(len(req.Candidates), req.Candidates == nil) +
		sliceSize(len(req.Clusters), req.Clusters == nil) + varintSize(int64(req.Iterations))
	for _, s := range req.Candidates {
		size += varintsSize(s.Local) + f64sSize(s.Sims)
	}
	for _, c := range req.Clusters {
		size += varintSize(int64(c.ID)) + varintSize(int64(c.TreeID)) + varintSize(int64(c.Medoid)) +
			varintsSize(c.Local) + u64sSize(c.Masks)
	}
	return size
}

// projection reads the projection section: req's Has* flags and
// Iterations, and the lists into dst, through sc. It stops at the first
// error, the body's or dst's.
func (r *binReader) projection(req *MatchRequest, dst projectionDst, sc *scratch) error {
	req.HasCandidates = r.bool()
	n, present := r.slice()
	if r.err != nil {
		return r.err
	}
	if err := dst.beginSets(req.HasCandidates, n, present); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		local := varintsInto(r, &sc.locals)
		sims := r.f64sInto(&sc.sims)
		if r.err != nil {
			return r.err
		}
		if err := dst.putSet(i, local, sims); err != nil {
			return err
		}
	}
	req.HasClusters = r.bool()
	n, present = r.slice()
	if r.err != nil {
		return r.err
	}
	if err := dst.beginClusters(req.HasClusters, n, present); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		h := clusterHead{id: int(r.varint()), treeID: int(r.varint()), medoid: int32(r.varint())}
		local := varintsInto(r, &sc.locals)
		masks := r.u64sInto(&sc.masks)
		if r.err != nil {
			return r.err
		}
		if err := dst.putCluster(i, h, local, masks); err != nil {
			return err
		}
	}
	req.Iterations = int(r.varint())
	return r.err
}

func appendScore(b []byte, s WireScore) []byte {
	b = appendF64(b, s.Delta)
	b = appendF64(b, s.Sim)
	b = appendF64(b, s.Path)
	return binary.AppendVarint(b, int64(s.Et))
}

func (r *binReader) score() WireScore {
	return WireScore{Delta: r.f64(), Sim: r.f64(), Path: r.f64(), Et: int(r.varint())}
}

func appendReport(b []byte, rep *WireReport) []byte {
	b = binary.AppendVarint(b, int64(rep.Variant))
	b = binary.AppendVarint(b, int64(rep.MappingElements))
	b = binary.AppendVarint(b, int64(rep.Clusters))
	b = binary.AppendVarint(b, int64(rep.UsefulClusters))
	b = appendF64(b, rep.AvgElementsPerUsefulCluster)
	b = appendVarints(b, rep.ClusterSizes)
	b = binary.AppendVarint(b, int64(rep.Iterations))
	b = appendF64(b, rep.Counters.SearchSpace)
	b = binary.AppendVarint(b, rep.Counters.PartialMappings)
	b = binary.AppendVarint(b, rep.Counters.CompleteMappings)
	b = binary.AppendVarint(b, rep.Counters.Found)
	b = binary.AppendVarint(b, int64(rep.Counters.UsefulClusters))
	b = appendSlice(b, len(rep.Mappings), rep.Mappings == nil)
	for _, m := range rep.Mappings {
		b = appendVarints(b, m.Local)
		b = appendF64s(b, m.Sims)
		b = appendScore(b, m.Score)
		b = binary.AppendVarint(b, int64(m.ClusterID))
	}
	b = appendSlice(b, len(rep.Partials), rep.Partials == nil)
	for _, p := range rep.Partials {
		b = appendVarints(b, p.Local)
		b = appendF64s(b, p.Sims)
		b = binary.AppendUvarint(b, p.CoveredMask)
		b = binary.AppendVarint(b, int64(p.Covered))
		b = appendScore(b, p.Score)
		b = binary.AppendVarint(b, int64(p.ClusterID))
	}
	b = binary.AppendVarint(b, rep.MatchNS)
	b = binary.AppendVarint(b, rep.ClusterNS)
	b = binary.AppendVarint(b, rep.GenNS)
	return binary.AppendVarint(b, int64(rep.FirstGoodAfter))
}

func (r *binReader) report() WireReport {
	rep := WireReport{
		Variant:         int(r.varint()),
		MappingElements: int(r.varint()),
		Clusters:        int(r.varint()),
		UsefulClusters:  int(r.varint()),
	}
	rep.AvgElementsPerUsefulCluster = r.f64()
	rep.ClusterSizes = varints[int](r)
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
				Local: varints[int32](r),
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
				Local:       varints[int32](r),
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

func appendSpans(b []byte, spans []WireSpan) []byte {
	b = appendSlice(b, len(spans), spans == nil)
	for _, s := range spans {
		b = appendStr(b, s.ID)
		b = appendStr(b, s.Parent)
		b = appendStr(b, s.Name)
		b = binary.AppendVarint(b, s.StartNS)
		b = binary.AppendVarint(b, s.DurNS)
		b = appendSlice(b, len(s.Attrs), s.Attrs == nil)
		for _, a := range s.Attrs {
			b = appendStr(b, a.Key)
			b = appendStr(b, a.Value)
		}
	}
	return b
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
// format, into one buffer sized so it never grows. The result decodes back
// to a structurally identical MatchRequest (including nil-vs-empty slice
// distinctions).
func EncodeBinaryMatchRequest(req *MatchRequest) []byte {
	size := headerBound(req)
	if !req.ProjectionRef {
		size += projectionSize(req)
	}
	b, _ := appendRequest(make([]byte, 0, size), req, wireForm{req}, nil)
	return b
}

// appendRequest writes req's header, then — unless it is slim — its
// projection section from src.
func appendRequest(b []byte, req *MatchRequest, src projectionSrc, sc *scratch) ([]byte, error) {
	var flags byte
	if req.ProjectionRef {
		flags |= binFlagProjectionRef
	}
	b = append(b, binaryVersion, flags)
	b = appendDescriptor(b, req.Descriptor)
	b = appendTree(b, req.Personal)
	b = appendStr(b, req.Signature)
	b = appendStr(b, req.ProjectionHash)
	b = appendOptions(b, req.Options)
	if req.ProjectionRef {
		return b, nil
	}
	return appendProjection(b, req, src, sc)
}

// headerBound bounds a request's bytes before its projection section from
// above: its strings and arrays at their worst-case widths, plus 256 bytes
// for the fixed-width fields and the at most 18 other varints and length
// prefixes around them.
func headerBound(req *MatchRequest) int {
	d, o := &req.Descriptor, &req.Options
	n := 256 + len(d.Strategy) + len(d.RepoHash) + binary.MaxVarintLen64*len(d.TreeIDs) +
		len(req.Personal.Name) + len(req.Signature) + len(req.ProjectionHash) + len(o.Matcher) + len(o.Structure)
	for _, nd := range req.Personal.Nodes {
		n += 3*binary.MaxVarintLen64 + 1 + len(nd.Name) + len(nd.Type)
	}
	return n
}

// DecodeBinaryMatchRequest parses a binary match request body.
func DecodeBinaryMatchRequest(b []byte) (*MatchRequest, error) {
	r := &binReader{b: b}
	req := r.header(new([]int))
	if r.err != nil {
		return nil, r.err
	}
	if !req.ProjectionRef {
		if err := r.projection(req, wireForm{req}, &scratch{}); err != nil {
			return nil, err
		}
	}
	if err := r.end("match request"); err != nil {
		return nil, err
	}
	return req, nil
}

// header reads a request body up to its projection section, the
// descriptor's tree IDs into *ids's storage.
func (r *binReader) header(ids *[]int) *MatchRequest {
	if v := r.u8(); r.err == nil && v != binaryVersion {
		r.err = fmt.Errorf("shardrpc: binary: unsupported wire version %d (want %d)", v, binaryVersion)
		return nil
	}
	flags := r.u8()
	return &MatchRequest{
		Descriptor:     r.descriptor(ids),
		Personal:       r.tree(),
		Signature:      r.str(),
		ProjectionHash: r.str(),
		Options:        r.options(),
		ProjectionRef:  flags&binFlagProjectionRef != 0,
	}
}

// end checks that the body of the named kind was read to its last byte.
func (r *binReader) end(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("shardrpc: binary: %d trailing bytes after %s", len(r.b)-r.off, what)
	}
	return nil
}

// responseRoom is the buffer a response body starts in. A ranked report
// with its spans is about 1 KB; a larger one grows the buffer as it goes.
const responseRoom = 2 << 10

// EncodeBinaryMatchResponse renders a match response in the binary wire
// format.
func EncodeBinaryMatchResponse(resp *MatchResponse) []byte {
	return appendResponse(make([]byte, 0, responseRoom), resp)
}

// appendResponse writes a match response body after b.
func appendResponse(b []byte, resp *MatchResponse) []byte {
	b = append(b, binaryVersion)
	b = appendReport(b, &resp.Report)
	return appendSpans(b, resp.Spans)
}

// DecodeBinaryMatchResponse parses a binary match response body.
func DecodeBinaryMatchResponse(b []byte) (*MatchResponse, error) {
	r := &binReader{b: b}
	if v := r.u8(); r.err == nil && v != binaryVersion {
		return nil, fmt.Errorf("shardrpc: binary: unsupported wire version %d (want %d)", v, binaryVersion)
	}
	resp := &MatchResponse{Report: r.report(), Spans: r.spans()}
	if err := r.end("match response"); err != nil {
		return nil, err
	}
	return resp, nil
}

// ProjectionDigest content-addresses a request's projected pre-pass
// payload: the SHA-256 (first 16 bytes, hex) of the binary encoding of
// (HasCandidates, Candidates, HasClusters, Clusters, Iterations) — the
// projection section of a full request body, with an empty top-level list
// written as nil. Nothing on the request path computes or checks it; it
// names a projection for tools that compare encodings.
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
	b, _ := appendProjection(make([]byte, 0, projectionSize(&c)), &c, wireForm{&c}, nil)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
