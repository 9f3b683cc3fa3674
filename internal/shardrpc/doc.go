// Package shardrpc is the wire protocol behind distributed shard serving:
// it lets a serve.Router fan match requests out to shards hosted in OTHER
// processes, while keeping the merged report byte-identical to an
// unsharded run.
//
// # Model
//
// Both sides load the same repository (same file or the same synthetic
// seed) and partition it deterministically with the same strategy, so the
// router and every shard server agree on the shard views without ever
// shipping the repository over the wire. What crosses the wire per request
// is exactly the serve layer's pre-pass handoff:
//
//   - the personal schema (preorder node list),
//   - the request options (canonically encoded; matchers by name),
//   - the projected candidate set and the translated clusters, node
//     references encoded in the shard view's dense LOCAL ID space
//     (labeling.View.LocalID), and
//   - the shard Descriptor — partition shape plus the member tree IDs —
//     which the shard server verifies before serving, so a misconfigured
//     topology fails loudly instead of returning wrong mappings.
//
// The response is the shard's pipeline.Report with mapping images encoded
// as local IDs; the router's RemoteShard client decodes them back into its
// own repository nodes, after which merging is indistinguishable from the
// in-process fan-out.
//
// /v1/shard/match speaks ONE codec, the length-prefixed binary encoding of
// binary.go (Content-Type application/x-bellflower-shard; anything else is
// 415). There is no negotiation: router and shards are deployed from the
// same build. The router answers repeats from its own report cache, so a
// repeat reaches a shard only once the router has evicted it, and then as
// the full request, which the shard answers from its own report cache. The
// router sends full requests only; a shard still answers a slim one (no
// projection, "the report you cached under this signature", or 428), as
// the one writer of the counters the benchmark's wire ledger reads. A
// request is one pass over its bytes on each side, and allocates no
// storage for its projection: the client writes the full body once,
// straight from the router's staged projection (only its shard's
// candidates) into a pooled buffer that goes back once the transport has
// closed every reader of it; the shard reads it into a
// pooled buffer of its Content-Length (trusted up to 1 MiB; a larger
// declared body is read as it arrives) and decodes the projection straight
// into pooled candidate and cluster storage on its view, which its service
// holds until the run that reads it is over (serve.Staged). JSON remains
// for /v1/shard/stats and error bodies.
//
// # Pieces
//
// ShardServer adapts one view-backed serve.Service to the two HTTP
// endpoints (/v1/shard/match, /v1/shard/stats) that bellflower-server
// exposes in -shard-of mode. RemoteShard is the client for one such server:
// request encoding, single match attempts with a per-attempt timeout, stats,
// and a Check health probe that verifies the remote descriptor. ReplicaSet
// groups the clients of one shard's replicas and implements
// serve.ShardBackend (MatchStaged): it owns the attempt policy — round-robin
// over healthy replicas, failover on transport errors, a second attempt for
// a lone replica — and the health monitors; failures surface as per-shard
// errors, feeding the router's partial-results machinery
// (Report.Incomplete, ShardErrors, per-shard metrics). Integrity is
// belt-and-braces: requests carry the router's
// canonical request signature and the shard recomputes it after decoding,
// so any encoding disagreement is a 400, never a silently different report.
package shardrpc
