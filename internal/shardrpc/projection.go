package shardrpc

import (
	"fmt"
	"sync"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// A full request's projection section — the router's pre-pass result for
// one shard: the candidate sets on its trees and the clusters that live
// there, in the shard view's local-ID space — has one writer
// (appendProjection) and one reader (binReader.projection). Both walk the
// section one candidate set or cluster at a time and exchange it with a
// form through scratch arrays that the next set or cluster overwrites:
//   - wireForm is a MatchRequest's Candidates and Clusters, the reference
//     form the exported Encode*/Decode* functions and the tests speak;
//   - stagedForm is a serve.Staged read through a view: the client writes a
//     busy shard's body straight from the router's projection;
//   - stagedStore is pooled storage on a view: the shard reads a body
//     straight into matcher.Candidates and clusters, with no wire structs in
//     between, and hands it to its service as a serve.Staged.

// scratch holds the arrays of the one candidate set or cluster being
// written or read.
type scratch struct {
	locals []int32
	sims   []float64
	masks  []uint64
	ids    []int // a request header's descriptor tree IDs
}

// grow returns *buf resized to n elements, reallocating when it is too
// short. The result is never nil: an empty array is present.
func grow[T any](buf *[]T, n int) []T {
	if *buf == nil || cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// clone copies an array into exactly sized storage of its own, keeping nil
// (absent) apart from empty.
func clone[T any](s []T) []T {
	if s == nil {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// clusterHead is a cluster's scalar fields in local-ID form.
type clusterHead struct {
	id, treeID int
	medoid     int32 // -1 when unset
}

// projectionSrc is a projection the section is written from. A nil array or
// list is written as absent.
type projectionSrc interface {
	sets() (n int, present bool)
	set(i int, sc *scratch) (local []int32, sims []float64)
	clusterList() (n int, present bool)
	clusterAt(i int, sc *scratch) (h clusterHead, local []int32, masks []uint64, err error)
}

// projectionDst receives the section as it is read. has is the list's
// Has* flag; the arrays are scratch, nil when absent.
type projectionDst interface {
	beginSets(has bool, n int, present bool) error
	putSet(i int, local []int32, sims []float64) error
	beginClusters(has bool, n int, present bool) error
	putCluster(i int, h clusterHead, local []int32, masks []uint64) error
}

// wireForm is the projection in a request's wire structs. As a destination
// it copies every array into storage of its own.
type wireForm struct{ req *MatchRequest }

func (w wireForm) sets() (int, bool) { return len(w.req.Candidates), w.req.Candidates != nil }

func (w wireForm) set(i int, _ *scratch) ([]int32, []float64) {
	s := &w.req.Candidates[i]
	return s.Local, s.Sims
}

func (w wireForm) clusterList() (int, bool) { return len(w.req.Clusters), w.req.Clusters != nil }

func (w wireForm) clusterAt(i int, _ *scratch) (clusterHead, []int32, []uint64, error) {
	c := &w.req.Clusters[i]
	return clusterHead{c.ID, c.TreeID, c.Medoid}, c.Local, c.Masks, nil
}

func (w wireForm) beginSets(_ bool, n int, present bool) error {
	if present {
		w.req.Candidates = make([]WireCandidateSet, n)
	}
	return nil
}

func (w wireForm) putSet(i int, local []int32, sims []float64) error {
	w.req.Candidates[i] = WireCandidateSet{Local: clone(local), Sims: clone(sims)}
	return nil
}

func (w wireForm) beginClusters(_ bool, n int, present bool) error {
	if present {
		w.req.Clusters = make([]WireCluster, n)
	}
	return nil
}

func (w wireForm) putCluster(i int, h clusterHead, local []int32, masks []uint64) error {
	w.req.Clusters[i] = WireCluster{ID: h.id, TreeID: h.treeID, Medoid: h.medoid, Local: clone(local), Masks: clone(masks)}
	return nil
}

// stagedForm is a staged projection read through the shard's view: the
// client's source for a busy shard's body. Its candidate sets may hold
// candidates of other shards (a router over remote shards hands every
// client the whole pre-pass set); only those on the view's trees are
// written. Both lists are always present, a set without candidates on the
// view has absent arrays, and a cluster's arrays are present. A cluster
// node outside the view is an encoding error — clusters are handed to
// shards whole, and it would silently vanish from the shard's result.
type stagedForm struct {
	v        *labeling.View
	cands    *matcher.Candidates
	clusters []*cluster.Cluster
}

func (f stagedForm) sets() (int, bool) { return len(f.cands.Sets), true }

func (f stagedForm) set(i int, sc *scratch) ([]int32, []float64) {
	elems := f.cands.Sets[i].Elems
	local, sims := grow(&sc.locals, len(elems))[:0], grow(&sc.sims, len(elems))[:0]
	for _, cand := range elems {
		if lid := f.v.LocalID(cand.Node); lid >= 0 {
			local, sims = append(local, int32(lid)), append(sims, cand.Sim)
		}
	}
	if len(local) == 0 {
		return nil, nil
	}
	return local, sims
}

func (f stagedForm) clusterList() (int, bool) { return len(f.clusters), true }

func (f stagedForm) clusterAt(i int, sc *scratch) (clusterHead, []int32, []uint64, error) {
	cl := f.clusters[i]
	h := clusterHead{id: cl.ID, treeID: cl.TreeID, medoid: -1}
	if cl.Medoid != nil {
		lid := f.v.LocalID(cl.Medoid)
		if lid < 0 {
			return h, nil, nil, fmt.Errorf("shardrpc: cluster %d medoid %v is outside the shard view", cl.ID, cl.Medoid)
		}
		h.medoid = int32(lid)
	}
	local, masks := grow(&sc.locals, len(cl.Elements)), grow(&sc.masks, len(cl.Elements))
	for j, e := range cl.Elements {
		lid := f.v.LocalID(e.Node)
		if lid < 0 {
			return h, nil, nil, fmt.Errorf("shardrpc: cluster %d element %v is outside the shard view", cl.ID, e.Node)
		}
		local[j], masks[j] = int32(lid), e.Mask
	}
	return h, local, masks, nil
}

// stagedStore is the storage one projection is decoded into on a view —
// candidate sets, their elements, and the clusters with their pointers and
// members — and, pooled, the shard's reading of every full request.
// Storage that grows mid-decode leaves the sets already cut on the old
// array, which stays valid; the store keeps the larger one.
type stagedStore struct {
	view     *labeling.View
	personal *schema.Tree

	skipSets, skipClusters bool // the list is not staged (its Has* flag is clear): read, not kept

	cands   matcher.Candidates
	sets    []matcher.CandidateSet
	elems   []matcher.Candidate
	ptrs    []*cluster.Cluster
	cls     []cluster.Cluster
	members []cluster.Element
	sc      scratch

	release func() // put, the one func value every Staged.Release of this store shares
}

var stagedPool = sync.Pool{New: func() any { return new(stagedStore) }}

// maxPooledElements is the largest candidate or cluster element storage, in
// elements, that a store keeps when it goes back to the pool (1 MiB of
// candidates); a larger one, from an unusually wide request, is left to the
// collector.
const maxPooledElements = 1 << 16

// getStagedStore takes a store from the pool for a projection on v; the
// caller sets its personal tree before reading into it.
func getStagedStore(v *labeling.View) *stagedStore {
	st := stagedPool.Get().(*stagedStore)
	if st.release == nil {
		st.release = st.put
	}
	st.view = v
	return st
}

// put hands the store back to the pool. Nothing read from it may be used
// afterwards.
func (st *stagedStore) put() {
	if cap(st.elems) > maxPooledElements || cap(st.members) > maxPooledElements {
		return
	}
	st.view, st.personal, st.skipSets, st.skipClusters = nil, nil, false, false
	st.cands = matcher.Candidates{}
	stagedPool.Put(st)
}

// staged is the decoded projection as the service's input, held by the
// service until it calls Release.
func (st *stagedStore) staged(iterations int) serve.Staged {
	return serve.Staged{Cands: &st.cands, Clusters: st.ptrs, Iterations: iterations, Release: st.release}
}

func (st *stagedStore) beginSets(has bool, n int, _ bool) error {
	if st.skipSets = !has; st.skipSets {
		return nil
	}
	if n != st.personal.Len() {
		return fmt.Errorf("shardrpc: %d candidate sets for a %d-node personal schema", n, st.personal.Len())
	}
	st.cands = matcher.Candidates{Personal: st.personal, Sets: grow(&st.sets, n)}
	st.elems = st.elems[:0]
	return nil
}

func (st *stagedStore) putSet(i int, local []int32, sims []float64) error {
	if st.skipSets {
		return nil
	}
	if len(local) != len(sims) {
		return fmt.Errorf("shardrpc: candidate set %d: %d IDs, %d sims", i, len(local), len(sims))
	}
	set := &st.cands.Sets[i]
	*set = matcher.CandidateSet{Personal: st.personal.NodeAt(i)}
	if len(local) == 0 {
		return nil
	}
	v, lo := st.view, len(st.elems)
	for j, lid := range local {
		if lid < 0 || int(lid) >= v.Len() {
			return fmt.Errorf("shardrpc: candidate set %d: local ID %d outside view of %d nodes", i, lid, v.Len())
		}
		st.elems = append(st.elems, matcher.Candidate{Node: v.Node(int(lid)), Sim: sims[j]})
	}
	set.Elems = st.elems[lo:len(st.elems):len(st.elems)]
	return nil
}

func (st *stagedStore) beginClusters(has bool, n int, _ bool) error {
	if st.skipClusters = !has; st.skipClusters {
		return nil
	}
	st.ptrs, st.cls = grow(&st.ptrs, n), grow(&st.cls, n)
	st.members = st.members[:0]
	return nil
}

func (st *stagedStore) putCluster(i int, h clusterHead, local []int32, masks []uint64) error {
	if st.skipClusters {
		return nil
	}
	if len(local) != len(masks) {
		return fmt.Errorf("shardrpc: cluster %d: mismatched element arrays (%d/%d)", h.id, len(local), len(masks))
	}
	v := st.view
	cl := &st.cls[i]
	*cl = cluster.Cluster{ID: h.id, TreeID: h.treeID}
	st.ptrs[i] = cl
	if h.medoid >= 0 {
		if int(h.medoid) >= v.Len() {
			return fmt.Errorf("shardrpc: cluster %d: medoid local ID %d outside view", h.id, h.medoid)
		}
		cl.Medoid = v.Node(int(h.medoid))
	}
	if len(local) == 0 {
		return nil
	}
	lo := len(st.members)
	for j, lid := range local {
		if lid < 0 || int(lid) >= v.Len() {
			return fmt.Errorf("shardrpc: cluster %d: local ID %d outside view of %d nodes", h.id, lid, v.Len())
		}
		st.members = append(st.members, cluster.Element{Node: v.Node(int(lid)), Mask: masks[j]})
	}
	cl.Elements = st.members[lo:len(st.members):len(st.members)]
	if got := v.TreeID(cl.Elements[0].Node); got != h.treeID {
		return fmt.Errorf("shardrpc: cluster %d claims tree %d but its elements live in tree %d", h.id, h.treeID, got)
	}
	return nil
}

// EncodeCandidates translates the candidates on the view's trees into
// local-ID wire form, through the client's staged encoding; candidates
// elsewhere are left out. A set without candidates on the view keeps nil
// arrays.
func EncodeCandidates(v *labeling.View, c *matcher.Candidates) ([]WireCandidateSet, error) {
	f, sc := stagedForm{v: v, cands: c}, &scratch{}
	out := make([]WireCandidateSet, len(c.Sets))
	for i := range out {
		local, sims := f.set(i, sc)
		out[i] = WireCandidateSet{Local: clone(local), Sims: clone(sims)}
	}
	return out, nil
}

// EncodeClusters translates clusters (whole, never split — clusters never
// span trees, so each belongs wholesale to one shard) into local-ID form,
// through the client's staged encoding.
func EncodeClusters(v *labeling.View, cls []*cluster.Cluster) ([]WireCluster, error) {
	f, sc := stagedForm{v: v, clusters: cls}, &scratch{}
	out := make([]WireCluster, len(cls))
	for i := range out {
		h, local, masks, err := f.clusterAt(i, sc)
		if err != nil {
			return nil, err
		}
		out[i] = WireCluster{ID: h.id, TreeID: h.treeID, Medoid: h.medoid, Local: clone(local), Masks: clone(masks)}
	}
	return out, nil
}

// DecodeCandidates rebuilds a candidate set against the shard's own view,
// bound to the decoded personal tree, through the shard's staged decoding
// into storage of its own. A set without candidates keeps nil.
func DecodeCandidates(v *labeling.View, personal *schema.Tree, sets []WireCandidateSet) (*matcher.Candidates, error) {
	st := &stagedStore{view: v, personal: personal}
	if err := st.beginSets(true, len(sets), sets != nil); err != nil {
		return nil, err
	}
	for i := range sets {
		if err := st.putSet(i, sets[i].Local, sets[i].Sims); err != nil {
			return nil, err
		}
	}
	return &st.cands, nil
}

// DecodeClusters rebuilds clusters against the shard's own view, through
// the shard's staged decoding into storage of its own.
func DecodeClusters(v *labeling.View, wcs []WireCluster) ([]*cluster.Cluster, error) {
	st := &stagedStore{view: v}
	if err := st.beginClusters(true, len(wcs), wcs != nil); err != nil {
		return nil, err
	}
	for i := range wcs {
		wc := &wcs[i]
		if err := st.putCluster(i, clusterHead{wc.ID, wc.TreeID, wc.Medoid}, wc.Local, wc.Masks); err != nil {
			return nil, err
		}
	}
	return st.ptrs, nil
}
