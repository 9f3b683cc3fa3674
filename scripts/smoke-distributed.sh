#!/usr/bin/env bash
# Multi-process smoke test for distributed serving: two shard-server
# processes plus one router process, one end-to-end match through the
# public API, a stats scrape proving the fan-out actually crossed
# process boundaries, a repeat of the same match proving the router answers
# it from its own report cache without asking a shard, a match that is
# idle on shard B (no useful cluster there) proving the router does not
# ask it, and — once that match has evicted the first from the router's
# one-entry cache — the first match again, proving it reaches shard A as one
# full request that A answers from its report cache. Then the control-plane
# drill: kill one shard mid-run, assert the -partial router keeps answering (Incomplete) and
# reports the shard unhealthy, restart the shard, and assert probes
# re-admit it. Run from anywhere; used by CI.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)/bellflower-server
PORT_A=18181 PORT_B=18182 PORT_R=18180
SYNTH="-synthetic 1200 -seed 7"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/bellflower-server

"$BIN" $SYNTH -shard-of 0/2 -addr "127.0.0.1:$PORT_A" &
PIDS+=($!)
"$BIN" $SYNTH -shard-of 1/2 -addr "127.0.0.1:$PORT_B" &
PIDS+=($!)

wait_healthy() {
  local port=$1
  for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "process on port $port never became healthy" >&2
  return 1
}
wait_healthy "$PORT_A"
wait_healthy "$PORT_B"

# field BODY NAME prints the first occurrence of one counter in a stats body
# (0 when the field is omitted as zero); shard_stat PORT FIELD reads a
# shard's /v1/shard/stats, router_stat FIELD the router's rollup: the
# "total" object of its /v1/stats body, which lists the shards before it
# (no shard object has a "total" key).
field() {
  local n
  n=$(echo "$1" | grep -o "\"$2\": *[0-9]*" | head -n 1 | grep -o '[0-9]*$' || true)
  echo "${n:-0}"
}
shard_stat() { field "$(curl -sf "http://127.0.0.1:$1/v1/shard/stats")" "$2"; }
router_stat() {
  local body
  body=$(curl -sf "http://127.0.0.1:$PORT_R/v1/stats")
  case "$body" in
    *'"total":'*) field "${body#*\"total\":}" "$1" ;;
    *) echo "router stats carry no total: $body" >&2; return 1 ;;
  esac
}
# router_metric NAME reads one unlabelled series of the router's /metrics:
# the rollup, router-level counters included.
router_metric() {
  local body
  body=$(curl -sf "http://127.0.0.1:$PORT_R/metrics")
  awk -v n="$1" '$1 == n { print $2 }' <<<"$body"
}

# Partial mode with fast health probes, so the control-plane drill below
# can observe mark-down and re-admission within seconds. The router caches
# one merged report (-cache 1), so one other request evicts a repeat's
# answer and the repeat after it reaches the shards again.
"$BIN" $SYNTH -remote-shards "127.0.0.1:$PORT_A,127.0.0.1:$PORT_B" -addr "127.0.0.1:$PORT_R" \
  -partial -health-interval 200ms -health-failures 2 -cache 1 &
PIDS+=($!)
wait_healthy "$PORT_R"

# One end-to-end match through the router: must be a 200 with a pipeline
# section and no incomplete marker (all shards are healthy). Shard B is the
# one cd(price,titles) tree of the two-way clustered partition, so this
# request holds a useful cluster on both shards and reaches both.
match() { echo '{"personal":"'"$1"'","options":{"delta":0.5,"min_sim":0.3,"top_n":'"$2"',"variant":"tree"}}'; }
FIRST=$(match 'cd(price,title)' 5)
resp=$(curl -sf "http://127.0.0.1:$PORT_R/v1/match" -d "$FIRST")
echo "$resp" | grep -q '"pipeline"' || { echo "match response carries no pipeline stats: $resp" >&2; exit 1; }
if echo "$resp" | grep -q '"incomplete": true'; then
  echo "healthy distributed fan-out reported incomplete: $resp" >&2
  exit 1
fi

# The router's stats must show a two-shard rollup, and each shard server
# must have served exactly the fanned-out pipeline work. Buffer the body
# before grepping: `curl | grep -q` under pipefail dies on the EPIPE that
# grep's early exit sends once the stats payload outgrows one pipe write.
stats=$(curl -sf "http://127.0.0.1:$PORT_R/v1/stats")
echo "$stats" | grep -q '"shards"' \
  || { echo "router stats carry no per-shard breakdown" >&2; exit 1; }
for port in "$PORT_A" "$PORT_B"; do
  if [ "$(shard_stat "$port" pipeline_runs)" -lt 1 ]; then
    echo "shard on port $port served no pipeline runs; fan-out never reached it" >&2
    exit 1
  fi
done

# The same body again: the router answers it from its own report cache —
# one more hit in the rollup, and shard A is not asked.
hits=$(router_metric bellflower_cache_hits_total)
a_requests=$(shard_stat "$PORT_A" requests)
resp=$(curl -sf "http://127.0.0.1:$PORT_R/v1/match" -d "$FIRST")
if echo "$resp" | grep -q '"incomplete": true'; then
  echo "repeated match reported incomplete: $resp" >&2
  exit 1
fi
if [ "$(router_metric bellflower_cache_hits_total)" -ne $((hits + 1)) ]; then
  echo "router cache hits went from $hits to $(router_metric bellflower_cache_hits_total) on a repeat, want +1" >&2
  exit 1
fi
if [ "$(shard_stat "$PORT_A" requests)" -ne "$a_requests" ]; then
  echo "the router sent shard A a repeat it had cached" >&2
  exit 1
fi

# book(title,author) holds no useful cluster on shard B: the router answers
# it without asking B, whose counters stay put, and counts one idle skip.
b_requests=$(shard_stat "$PORT_B" requests)
b_runs=$(shard_stat "$PORT_B" pipeline_runs)
idle=$(router_stat idle_skips)
resp=$(curl -sf "http://127.0.0.1:$PORT_R/v1/match" -d "$(match 'book(title,author)' 5)")
echo "$resp" | grep -q '"pipeline"' || { echo "idle-shard match failed: $resp" >&2; exit 1; }
if [ "$(shard_stat "$PORT_B" requests)" -ne "$b_requests" ] || [ "$(shard_stat "$PORT_B" pipeline_runs)" -ne "$b_runs" ]; then
  echo "shard B was asked a request it holds no useful cluster of" >&2
  exit 1
fi
if [ "$(router_stat idle_skips)" -ne $((idle + 1)) ]; then
  echo "router idle_skips went from $idle to $(router_stat idle_skips), want +1" >&2
  exit 1
fi

# That request evicted the first from the router's one-entry cache, so the
# first body again reaches the shards: as the full request, which shard A
# answers from its report cache — one more cache hit, no pipeline run. The
# router sends no slim request, so A's slim counters stay 0 throughout.
no_slim() {
  local hits misses
  hits=$(shard_stat "$PORT_A" projection_cache_hits)
  misses=$(shard_stat "$PORT_A" projection_cache_misses)
  if [ "$hits" -ne 0 ] || [ "$misses" -ne 0 ]; then
    echo "$1: shard A counts $hits slim hits and $misses 428s, want 0 and 0" >&2
    exit 1
  fi
}
a_hits=$(shard_stat "$PORT_A" cache_hits)
a_runs=$(shard_stat "$PORT_A" pipeline_runs)
resp=$(curl -sf "http://127.0.0.1:$PORT_R/v1/match" -d "$FIRST")
if echo "$resp" | grep -q '"incomplete": true'; then
  echo "match resent after eviction reported incomplete: $resp" >&2
  exit 1
fi
if [ "$(shard_stat "$PORT_A" cache_hits)" -ne $((a_hits + 1)) ] || [ "$(shard_stat "$PORT_A" pipeline_runs)" -ne "$a_runs" ]; then
  echo "shard A: cache hits $a_hits -> $(shard_stat "$PORT_A" cache_hits), runs $a_runs -> $(shard_stat "$PORT_A" pipeline_runs) on the resent match, want +1 and unchanged" >&2
  exit 1
fi
no_slim "resent match"

# The drill request holds a useful cluster on shard B: it reaches B while B
# is up, so its Incomplete answer below is B's death showing, not a shape
# B never sees.
b_requests=$(shard_stat "$PORT_B" requests)
curl -sf "http://127.0.0.1:$PORT_R/v1/match" -d "$(match 'cd(price,title)' 6)" >/dev/null
if [ "$(shard_stat "$PORT_B" requests)" -le "$b_requests" ]; then
  echo "the drill request never reached shard B" >&2
  exit 1
fi

# --- Control-plane drill: kill shard B mid-run. ---------------------------
kill "${PIDS[1]}" 2>/dev/null || true
wait "${PIDS[1]}" 2>/dev/null || true

# The router's probes must mark the dead shard unhealthy within seconds.
# router_down prints the router's stats body and succeeds when it reports a
# replica down; it fails on an unanswered scrape, which is no evidence
# either way (the body is buffered: see the EPIPE note above).
router_down() {
  local body
  body=$(curl -sf "http://127.0.0.1:$PORT_R/v1/stats") || return 2
  grep -q '"healthy": false' <<<"$body"
}
down=0
for _ in $(seq 1 50); do
  if router_down; then down=1; break; fi
  sleep 0.2
done
if [ "$down" -ne 1 ]; then
  echo "router never marked the killed shard unhealthy in /v1/stats" >&2
  exit 1
fi

# With the shard marked down, the -partial router must keep answering:
# 200, Incomplete merge, and promptly (the skip pays no request timeout).
resp=$(curl -sf --max-time 5 "http://127.0.0.1:$PORT_R/v1/match" -d "$(match 'cd(price,title)' 7)")
echo "$resp" | grep -q '"incomplete": true' \
  || { echo "match with a dead shard was not served as a partial result: $resp" >&2; exit 1; }

# Restart shard B on the same port: probes must re-verify the descriptor
# and re-admit it, after which matches are complete again.
"$BIN" $SYNTH -shard-of 1/2 -addr "127.0.0.1:$PORT_B" &
PIDS[1]=$!
wait_healthy "$PORT_B"
up=0
for _ in $(seq 1 50); do
  rc=0
  router_down || rc=$?
  if [ "$rc" -eq 1 ]; then up=1; break; fi
  sleep 0.2
done
if [ "$up" -ne 1 ]; then
  echo "router never re-admitted the restarted shard" >&2
  exit 1
fi
resp=$(curl -sf "http://127.0.0.1:$PORT_R/v1/match" -d "$(match 'cd(price,title)' 9)")
if echo "$resp" | grep -q '"incomplete": true'; then
  echo "match after shard re-admission still incomplete: $resp" >&2
  exit 1
fi
# top_n 6, 7 and 9 share the first request's pre-pass shape but not its
# signature: shard A got them as full bodies, never a slim one.
no_slim "end of the drill"

echo "distributed smoke: 2 shard servers + 1 router served one match end to end,"
echo "  its repeat from the router's cache, left an idle shard unasked, resent the"
echo "  evicted match as full requests answered from shard A's cache, survived a"
echo "  shard kill as a partial result, and re-admitted the restarted shard"
