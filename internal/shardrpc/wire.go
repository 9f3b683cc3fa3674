package shardrpc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// Descriptor identifies one shard of a deterministic repository partition:
// the partition shape (strategy, fan-out width, shard index) plus the
// member trees by repository-wide tree ID and the repository node count as
// a cheap fingerprint. Router and shard server each derive a Descriptor
// from their own partition of their own repository copy; the shard serves
// a request only when the two agree, so a topology mismatch — different
// repository, different strategy, wrong -shard-of index — is rejected
// before any matching happens.
type Descriptor struct {
	// Shard is this shard's index in the partition order.
	Shard int `json:"shard"`

	// NumShards is the partition's fan-out width.
	NumShards int `json:"num_shards"`

	// Strategy is the partition strategy's flag name ("clustered",
	// "balanced").
	Strategy string `json:"strategy"`

	// TreeIDs lists the member trees' repository-wide IDs in view order.
	TreeIDs []int `json:"tree_ids"`

	// RepoNodes is the full repository's node count — the wire ID spaces
	// only line up when both sides hold the same repository.
	RepoNodes int `json:"repo_nodes"`

	// RepoHash is a content hash of the full repository (its canonical
	// text serialization). Counts and tree IDs alone cannot tell two
	// same-shaped repositories with different names or types apart — and
	// a router and shard holding different repository CONTENT would
	// resolve the same local IDs to different nodes, producing silently
	// wrong mappings. The hash makes that a loud handshake failure.
	RepoHash string `json:"repo_hash"`
}

// repoHash computes the descriptor's repository content hash. The
// canonical serialization (schema.WriteRepository) covers tree order,
// names, kinds, types and structure, so equal hashes mean node-for-node
// equal repositories.
func repoHash(repo *schema.Repository) string {
	h := sha256.New()
	// Hashing cannot fail; WriteRepository's only error source is the
	// writer, and a hash.Hash never errors.
	_ = schema.WriteRepository(h, repo)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ViewDescriptor derives the descriptor of a shard view within a partition
// produced by serve.PartitionRepositoryViews. It hashes the full
// repository; callers describing a whole partition at once should use
// ViewDescriptors, which hashes once for all shards.
func ViewDescriptor(v *labeling.View, shard, numShards int, strategy serve.PartitionStrategy) Descriptor {
	return viewDescriptor(v, shard, numShards, strategy, repoHash(v.Repository()))
}

// ViewDescriptors derives every shard's descriptor for one partition,
// computing the repository content hash exactly once (it is the same
// repository under every view).
func ViewDescriptors(views []*labeling.View, strategy serve.PartitionStrategy) []Descriptor {
	out := make([]Descriptor, len(views))
	var hash string
	for i, v := range views {
		if hash == "" {
			hash = repoHash(v.Repository())
		}
		out[i] = viewDescriptor(v, i, len(views), strategy, hash)
	}
	return out
}

func viewDescriptor(v *labeling.View, shard, numShards int, strategy serve.PartitionStrategy, hash string) Descriptor {
	ids := make([]int, v.NumTrees())
	for i, t := range v.Trees() {
		ids[i] = t.ID
	}
	return Descriptor{
		Shard:     shard,
		NumShards: numShards,
		Strategy:  strategy.String(),
		TreeIDs:   ids,
		RepoNodes: v.Repository().Len(),
		RepoHash:  hash,
	}
}

// Equal reports whether two descriptors describe the same shard of the
// same partition of the same repository.
func (d Descriptor) Equal(o Descriptor) bool {
	if d.Shard != o.Shard || d.NumShards != o.NumShards ||
		d.Strategy != o.Strategy || d.RepoNodes != o.RepoNodes ||
		d.RepoHash != o.RepoHash || len(d.TreeIDs) != len(o.TreeIDs) {
		return false
	}
	for i := range d.TreeIDs {
		if d.TreeIDs[i] != o.TreeIDs[i] {
			return false
		}
	}
	return true
}

// String renders the descriptor compactly for error messages.
func (d Descriptor) String() string {
	return fmt.Sprintf("shard %d/%d (%s, %d trees, %d repo nodes)",
		d.Shard, d.NumShards, d.Strategy, len(d.TreeIDs), d.RepoNodes)
}

// WireNode is one preorder entry of a serialized schema tree.
type WireNode struct {
	Depth int    `json:"d"`
	Attr  bool   `json:"a,omitempty"`
	Name  string `json:"n"`
	Type  string `json:"t,omitempty"`
}

// WireTree is a schema tree in preorder — the personal schema's wire form.
type WireTree struct {
	Name  string     `json:"name"`
	Nodes []WireNode `json:"nodes"`
}

// EncodeTree serializes a tree as its preorder node list.
func EncodeTree(t *schema.Tree) WireTree {
	wt := WireTree{Name: t.Name, Nodes: make([]WireNode, 0, t.Len())}
	for _, n := range t.Nodes() {
		wt.Nodes = append(wt.Nodes, WireNode{
			Depth: n.Depth,
			Attr:  n.Kind == schema.KindAttribute,
			Name:  n.Name,
			Type:  n.Type,
		})
	}
	return wt
}

// DecodeTree rebuilds a tree from its preorder node list, validating the
// preorder depth structure.
func DecodeTree(wt WireTree) (*schema.Tree, error) {
	if len(wt.Nodes) == 0 {
		return nil, fmt.Errorf("shardrpc: tree %q has no nodes", wt.Name)
	}
	b := schema.NewBuilder(wt.Name)
	var stack []*schema.Node // stack[d] = last node at depth d
	for i, wn := range wt.Nodes {
		if wn.Depth < 0 || wn.Depth > len(stack) || (wn.Depth == 0) != (i == 0) {
			return nil, fmt.Errorf("shardrpc: tree %q node %d: depth %d does not follow preorder", wt.Name, i, wn.Depth)
		}
		var n *schema.Node
		switch {
		case wn.Depth == 0:
			if wn.Attr {
				return nil, fmt.Errorf("shardrpc: tree %q: root cannot be an attribute", wt.Name)
			}
			n = b.Root(wn.Name)
			n.Type = wn.Type
		case wn.Attr:
			n = b.TypedAttribute(stack[wn.Depth-1], wn.Name, wn.Type)
		default:
			n = b.TypedElement(stack[wn.Depth-1], wn.Name, wn.Type)
		}
		stack = append(stack[:wn.Depth], n)
	}
	return b.Tree()
}

// WireClusterConfig mirrors cluster.Config field for field.
type WireClusterConfig struct {
	JoinThreshold int     `json:"join_threshold"`
	RemoveBelow   int     `json:"remove_below"`
	SplitAbove    int     `json:"split_above"`
	MaxIterations int     `json:"max_iterations"`
	Stability     float64 `json:"stability"`
}

func encodeClusterConfig(c cluster.Config) WireClusterConfig {
	return WireClusterConfig{
		JoinThreshold: c.JoinThreshold,
		RemoveBelow:   c.RemoveBelow,
		SplitAbove:    c.SplitAbove,
		MaxIterations: c.MaxIterations,
		Stability:     c.Stability,
	}
}

func decodeClusterConfig(w WireClusterConfig) cluster.Config {
	return cluster.Config{
		JoinThreshold: w.JoinThreshold,
		RemoveBelow:   w.RemoveBelow,
		SplitAbove:    w.SplitAbove,
		MaxIterations: w.MaxIterations,
		Stability:     w.Stability,
	}
}

// WireOptions is the canonical wire form of pipeline.Options. Interface
// fields travel by name — exactly the vocabulary the HTTP daemon already
// exposes (name|token|synonym|type matchers, path|child|leaf structure
// matchers); options carrying any other implementation are not
// wire-encodable and fail EncodeOptions, which surfaces as that shard's
// error rather than a silently different result.
type WireOptions struct {
	Alpha           float64            `json:"alpha"`
	K               float64            `json:"k"`
	Threshold       float64            `json:"threshold"`
	MinSim          float64            `json:"min_sim"`
	TopN            int                `json:"top_n,omitempty"`
	Variant         int                `json:"variant"`
	Matcher         string             `json:"matcher,omitempty"`
	Structure       string             `json:"structure,omitempty"`
	StructureWeight float64            `json:"structure_weight,omitempty"`
	IncludePartials bool               `json:"include_partials,omitempty"`
	OrderClusters   bool               `json:"order_clusters,omitempty"`
	Agglomerative   bool               `json:"agglomerative,omitempty"`
	AdaptiveTopN    bool               `json:"adaptive_top_n,omitempty"` // deprecated: carried, ignored by the pipeline
	ClusterConfig   *WireClusterConfig `json:"cluster_config,omitempty"`
}

func encodeMatcher(m matcher.Matcher) (string, error) {
	switch mm := m.(type) {
	case nil:
		return "", nil
	case matcher.NameMatcher:
		switch mm {
		case matcher.NameMatcher{}:
			return "name", nil
		case matcher.NameMatcher{TokenAware: true}:
			return "token", nil
		}
	case matcher.TypeMatcher:
		return "type", nil
	case *matcher.SynonymMatcher:
		// The only synonym matcher with a wire name is the default
		// dictionary; Describe is canonical, so equality is behavioural.
		if matcher.Describe(mm) == matcher.Describe(matcher.DefaultSynonyms()) {
			return "synonym", nil
		}
	}
	return "", fmt.Errorf("shardrpc: matcher %s is not wire-encodable (want default, name, token, synonym or type)", matcher.Describe(m))
}

func decodeMatcher(s string) (matcher.Matcher, error) {
	switch s {
	case "":
		return nil, nil
	case "name":
		return matcher.NameMatcher{}, nil
	case "token":
		return matcher.NameMatcher{TokenAware: true}, nil
	case "synonym":
		return matcher.DefaultSynonyms(), nil
	case "type":
		return matcher.TypeMatcher{}, nil
	default:
		return nil, fmt.Errorf("shardrpc: unknown wire matcher %q", s)
	}
}

func encodeStructureMatcher(m matcher.Matcher) (string, error) {
	switch m.(type) {
	case nil:
		return "", nil
	case matcher.PathContextMatcher:
		return "path", nil
	case matcher.ChildContextMatcher:
		return "child", nil
	case matcher.LeafContextMatcher:
		return "leaf", nil
	}
	return "", fmt.Errorf("shardrpc: structure matcher %s is not wire-encodable (want path, child or leaf)", matcher.Describe(m))
}

func decodeStructureMatcher(s string) (matcher.Matcher, error) {
	switch s {
	case "":
		return nil, nil
	case "path":
		return matcher.PathContextMatcher{}, nil
	case "child":
		return matcher.ChildContextMatcher{}, nil
	case "leaf":
		return matcher.LeafContextMatcher{}, nil
	default:
		return nil, fmt.Errorf("shardrpc: unknown wire structure matcher %q", s)
	}
}

// EncodeOptions translates options to the wire form; options carrying
// matcher implementations without a wire name fail.
func EncodeOptions(o pipeline.Options) (WireOptions, error) {
	m, err := encodeMatcher(o.Matcher)
	if err != nil {
		return WireOptions{}, err
	}
	sm, err := encodeStructureMatcher(o.StructureMatcher)
	if err != nil {
		return WireOptions{}, err
	}
	w := WireOptions{
		Alpha:           o.Objective.Alpha,
		K:               o.Objective.K,
		Threshold:       o.Threshold,
		MinSim:          o.MinSim,
		TopN:            o.TopN,
		Variant:         int(o.Variant),
		Matcher:         m,
		Structure:       sm,
		StructureWeight: o.StructureWeight,
		IncludePartials: o.IncludePartials,
		OrderClusters:   o.OrderClusters,
		Agglomerative:   o.Agglomerative,
		//lint:ignore SA1019 the wire keeps the field; the pipeline ignores it
		AdaptiveTopN: o.AdaptiveTopN,
	}
	if o.ClusterConfig != nil {
		cc := encodeClusterConfig(*o.ClusterConfig)
		w.ClusterConfig = &cc
	}
	return w, nil
}

// DecodeOptions is the inverse of EncodeOptions.
func DecodeOptions(w WireOptions) (pipeline.Options, error) {
	m, err := decodeMatcher(w.Matcher)
	if err != nil {
		return pipeline.Options{}, err
	}
	sm, err := decodeStructureMatcher(w.Structure)
	if err != nil {
		return pipeline.Options{}, err
	}
	o := pipeline.Options{
		Threshold:        w.Threshold,
		MinSim:           w.MinSim,
		TopN:             w.TopN,
		Variant:          pipeline.Variant(w.Variant),
		Matcher:          m,
		StructureMatcher: sm,
		StructureWeight:  w.StructureWeight,
		IncludePartials:  w.IncludePartials,
		OrderClusters:    w.OrderClusters,
		Agglomerative:    w.Agglomerative,
		//lint:ignore SA1019 the wire keeps the field; the pipeline ignores it
		AdaptiveTopN: w.AdaptiveTopN,
	}
	o.Objective.Alpha = w.Alpha
	o.Objective.K = w.K
	if w.ClusterConfig != nil {
		cc := decodeClusterConfig(*w.ClusterConfig)
		o.ClusterConfig = &cc
	}
	return o, nil
}

// WireCandidateSet is one personal node's candidate list: parallel arrays
// of view-local node IDs and similarities, preserving the canonical
// (sim desc, node ID asc) order.
type WireCandidateSet struct {
	Local []int32   `json:"local"`
	Sims  []float64 `json:"sims"`
}

// WireCluster is one cluster in local-ID form: parallel arrays for the
// member elements plus the medoid and owning tree.
type WireCluster struct {
	ID     int      `json:"id"`
	TreeID int      `json:"tree_id"`
	Medoid int32    `json:"medoid"` // local ID, -1 when unset
	Local  []int32  `json:"local"`
	Masks  []uint64 `json:"masks"`
}

// WireScore mirrors objective.Score.
type WireScore struct {
	Delta float64 `json:"delta"`
	Sim   float64 `json:"sim"`
	Path  float64 `json:"path"`
	Et    int     `json:"et"`
}

// WireCounters mirrors mapgen.Counters.
type WireCounters struct {
	SearchSpace      float64 `json:"search_space"`
	PartialMappings  int64   `json:"partial_mappings"`
	CompleteMappings int64   `json:"complete_mappings"`
	Found            int64   `json:"found"`
	UsefulClusters   int     `json:"useful_clusters"`
}

// WireMapping is one ranked mapping with images as view-local node IDs.
type WireMapping struct {
	Local     []int32   `json:"local"`
	Sims      []float64 `json:"sims"`
	Score     WireScore `json:"score"`
	ClusterID int       `json:"cluster_id"`
}

// WirePartial is one partial mapping; uncovered ranks carry local ID -1.
type WirePartial struct {
	Local       []int32   `json:"local"`
	Sims        []float64 `json:"sims"`
	CoveredMask uint64    `json:"covered_mask"`
	Covered     int       `json:"covered"`
	Score       WireScore `json:"score"`
	ClusterID   int       `json:"cluster_id"`
}

// WireReport is a pipeline.Report with node references in local-ID space.
// Incomplete/ShardErrors have no wire form: a single shard never merges.
type WireReport struct {
	Variant                     int           `json:"variant"`
	MappingElements             int           `json:"mapping_elements"`
	Clusters                    int           `json:"clusters"`
	UsefulClusters              int           `json:"useful_clusters"`
	AvgElementsPerUsefulCluster float64       `json:"avg_elements_per_useful_cluster"`
	ClusterSizes                []int         `json:"cluster_sizes,omitempty"`
	Iterations                  int           `json:"iterations"`
	Counters                    WireCounters  `json:"counters"`
	Mappings                    []WireMapping `json:"mappings"`
	Partials                    []WirePartial `json:"partials,omitempty"`
	MatchNS                     int64         `json:"match_ns"`
	ClusterNS                   int64         `json:"cluster_ns"`
	GenNS                       int64         `json:"gen_ns"`
	FirstGoodAfter              int           `json:"first_good_after"`
}

// EncodeReport translates a shard's report into local-ID wire form.
func EncodeReport(v *labeling.View, rep *pipeline.Report) (WireReport, error) {
	wr := WireReport{
		Variant:                     int(rep.Variant),
		MappingElements:             rep.MappingElements,
		Clusters:                    rep.Clusters,
		UsefulClusters:              rep.UsefulClusters,
		AvgElementsPerUsefulCluster: rep.AvgElementsPerUsefulCluster,
		ClusterSizes:                rep.ClusterSizes,
		Iterations:                  rep.Iterations,
		Counters: WireCounters{
			SearchSpace:      rep.Counters.SearchSpace,
			PartialMappings:  rep.Counters.PartialMappings,
			CompleteMappings: rep.Counters.CompleteMappings,
			Found:            rep.Counters.Found,
			UsefulClusters:   rep.Counters.UsefulClusters,
		},
		MatchNS:        int64(rep.MatchTime),
		ClusterNS:      int64(rep.ClusterTime),
		GenNS:          int64(rep.GenTime),
		FirstGoodAfter: rep.FirstGoodAfter,
	}
	wr.Mappings = make([]WireMapping, len(rep.Mappings))
	for i, m := range rep.Mappings {
		wm := WireMapping{
			Local:     make([]int32, len(m.Images)),
			Sims:      m.Sims,
			Score:     WireScore{Delta: m.Score.Delta, Sim: m.Score.Sim, Path: m.Score.Path, Et: m.Score.Et},
			ClusterID: m.ClusterID,
		}
		for j, img := range m.Images {
			lid := v.LocalID(img)
			if lid < 0 {
				return WireReport{}, fmt.Errorf("shardrpc: mapping %d image %v is outside the shard view", i, img)
			}
			wm.Local[j] = int32(lid)
		}
		wr.Mappings[i] = wm
	}
	if len(rep.Partials) > 0 {
		wr.Partials = make([]WirePartial, len(rep.Partials))
		for i, p := range rep.Partials {
			wp := WirePartial{
				Local:       make([]int32, len(p.Images)),
				Sims:        p.Sims,
				CoveredMask: p.CoveredMask,
				Covered:     p.Covered,
				Score:       WireScore{Delta: p.Score.Delta, Sim: p.Score.Sim, Path: p.Score.Path, Et: p.Score.Et},
				ClusterID:   p.ClusterID,
			}
			for j, img := range p.Images {
				if img == nil {
					wp.Local[j] = -1
					continue
				}
				lid := v.LocalID(img)
				if lid < 0 {
					return WireReport{}, fmt.Errorf("shardrpc: partial mapping %d image %v is outside the shard view", i, img)
				}
				wp.Local[j] = int32(lid)
			}
			wr.Partials[i] = wp
		}
	}
	return wr, nil
}

// DecodeReport rebuilds the report with node references resolved through
// the caller's own view — after which the report is indistinguishable from
// one produced by an in-process shard.
func DecodeReport(v *labeling.View, wr WireReport) (*pipeline.Report, error) {
	rep := &pipeline.Report{
		Variant:                     pipeline.Variant(wr.Variant),
		MappingElements:             wr.MappingElements,
		Clusters:                    wr.Clusters,
		UsefulClusters:              wr.UsefulClusters,
		AvgElementsPerUsefulCluster: wr.AvgElementsPerUsefulCluster,
		ClusterSizes:                wr.ClusterSizes,
		Iterations:                  wr.Iterations,
		MatchTime:                   time.Duration(wr.MatchNS),
		ClusterTime:                 time.Duration(wr.ClusterNS),
		GenTime:                     time.Duration(wr.GenNS),
		FirstGoodAfter:              wr.FirstGoodAfter,
	}
	rep.Counters.SearchSpace = wr.Counters.SearchSpace
	rep.Counters.PartialMappings = wr.Counters.PartialMappings
	rep.Counters.CompleteMappings = wr.Counters.CompleteMappings
	rep.Counters.Found = wr.Counters.Found
	rep.Counters.UsefulClusters = wr.Counters.UsefulClusters
	node := func(lid int32, what string, i int) (*schema.Node, error) {
		if lid < 0 || int(lid) >= v.Len() {
			return nil, fmt.Errorf("shardrpc: %s %d: local ID %d outside view of %d nodes", what, i, lid, v.Len())
		}
		return v.Node(int(lid)), nil
	}
	if len(wr.Mappings) > 0 {
		rep.Mappings = make([]mapgen.Mapping, len(wr.Mappings))
		for i, wm := range wr.Mappings {
			if len(wm.Local) != len(wm.Sims) {
				return nil, fmt.Errorf("shardrpc: mapping %d: %d images, %d sims", i, len(wm.Local), len(wm.Sims))
			}
			m := mapgen.Mapping{
				Images:    make([]*schema.Node, len(wm.Local)),
				Sims:      wm.Sims,
				ClusterID: wm.ClusterID,
			}
			m.Score.Delta, m.Score.Sim, m.Score.Path, m.Score.Et = wm.Score.Delta, wm.Score.Sim, wm.Score.Path, wm.Score.Et
			for j, lid := range wm.Local {
				n, err := node(lid, "mapping", i)
				if err != nil {
					return nil, err
				}
				m.Images[j] = n
			}
			rep.Mappings[i] = m
		}
	}
	if len(wr.Partials) > 0 {
		rep.Partials = make([]mapgen.PartialMapping, len(wr.Partials))
		for i, wp := range wr.Partials {
			if len(wp.Local) != len(wp.Sims) {
				return nil, fmt.Errorf("shardrpc: partial %d: %d images, %d sims", i, len(wp.Local), len(wp.Sims))
			}
			p := mapgen.PartialMapping{
				Images:      make([]*schema.Node, len(wp.Local)),
				Sims:        wp.Sims,
				CoveredMask: wp.CoveredMask,
				Covered:     wp.Covered,
				ClusterID:   wp.ClusterID,
			}
			p.Score.Delta, p.Score.Sim, p.Score.Path, p.Score.Et = wp.Score.Delta, wp.Score.Sim, wp.Score.Path, wp.Score.Et
			for j, lid := range wp.Local {
				if lid == -1 {
					continue // uncovered rank
				}
				n, err := node(lid, "partial mapping", i)
				if err != nil {
					return nil, err
				}
				p.Images[j] = n
			}
			rep.Partials[i] = p
		}
	}
	return rep, nil
}

// MatchRequest is the /v1/shard/match request body (binary on the wire;
// the JSON tags are the reference form FuzzShardWire compares against).
// HasCandidates and HasClusters are set together when the router's pre-pass
// projection is staged — they distinguish "absent" from "present but
// empty", a shard may legitimately be handed zero clusters for a query —
// and both clear asks for the shard's full pipeline; a request setting only
// one is rejected.
//
// A slim request sets ProjectionRef and OMITS the projection entirely: it
// asks the shard to answer with the report it cached under Signature, which
// it must carry. The shard answers 428 (report-needed) when it holds none,
// and the client resends the full request. ProjectionHash is still encoded
// but nothing sets or reads it.
type MatchRequest struct {
	Descriptor     Descriptor         `json:"descriptor"`
	Personal       WireTree           `json:"personal"`
	Signature      string             `json:"signature,omitempty"`
	ProjectionHash string             `json:"projection_hash,omitempty"`
	ProjectionRef  bool               `json:"projection_ref,omitempty"`
	Options        WireOptions        `json:"options"`
	HasCandidates  bool               `json:"has_candidates,omitempty"`
	Candidates     []WireCandidateSet `json:"candidates,omitempty"`
	HasClusters    bool               `json:"has_clusters,omitempty"`
	Clusters       []WireCluster      `json:"clusters,omitempty"`
	Iterations     int                `json:"iterations,omitempty"`
}

// MatchResponse is the /v1/shard/match success body. Spans carries the
// shard-side trace (decode/match/encode and the pipeline stages under
// them) when the request arrived with an X-Bellflower-Trace header; the
// client grafts them into its own trace, stitching ONE tree across the
// process boundary.
type MatchResponse struct {
	Report WireReport `json:"report"`
	Spans  []WireSpan `json:"spans,omitempty"`
}

// StatsResponse is the /v1/shard/stats body (JSON): the shard's
// instrumentation snapshot plus its descriptor, which doubles as the
// health-check handshake (RemoteShard.Check verifies it against the
// router's own partition).
type StatsResponse struct {
	Descriptor Descriptor  `json:"descriptor"`
	Stats      serve.Stats `json:"stats"`
}
