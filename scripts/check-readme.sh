#!/usr/bin/env bash
# Fails when README.md references an HTTP endpoint or a bellflower-server
# flag that no longer exists in the code, so the docs cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Endpoints: every /v1/..., /healthz or /metrics path named anywhere in the
# README must be registered in the server's mux.
for ep in $(grep -oE '/(v1/[a-z/]+|healthz|metrics)' README.md | sed 's:/$::' | sort -u); do
  if ! grep -qF "\"$ep\"" cmd/bellflower-server/server.go; then
    echo "README references endpoint $ep, which is not registered in cmd/bellflower-server/server.go" >&2
    fail=1
  fi
done

# Flags: every backticked -flag inside the server-flags section must be
# defined by the server's flag set.
section=$(sed -n '/<!-- server-flags:begin -->/,/<!-- server-flags:end -->/p' README.md)
if [ -z "$section" ]; then
  echo "README is missing the server-flags section markers" >&2
  exit 1
fi
for fl in $(printf '%s\n' "$section" | grep -oE '`-[a-z][a-z-]*`' | tr -d '\`' | sort -u); do
  name=${fl#-}
  if ! grep -qE "fs\.[A-Za-z0-9]+\(\"$name\"" cmd/bellflower-server/main.go; then
    echo "README documents flag $fl, which is not defined in cmd/bellflower-server/main.go" >&2
    fail=1
  fi
done

# ... and the reverse: every flag the server defines must be documented in
# the server-flags section, so new flags (e.g. the distributed -shard-of /
# -remote-shards pair) cannot ship undocumented.
for name in $(grep -oE 'fs\.[A-Za-z0-9]+\("[a-z][a-z-]*"' cmd/bellflower-server/main.go | sed -E 's/.*\("([a-z-]+)".*/\1/' | sort -u); do
  if ! printf '%s\n' "$section" | grep -q -- "\`-$name\`"; then
    echo "server flag -$name is not documented in the README server-flags section" >&2
    fail=1
  fi
done

# Debug endpoints: when the README documents the -debug-addr listener,
# the paths it names must be mounted by debugRoutes.
for ep in /debug/pprof/ /debug/vars; do
  if grep -q "$ep" README.md && ! grep -qF "\"$ep\"" cmd/bellflower-server/server.go; then
    echo "README references debug endpoint $ep, which is not registered in cmd/bellflower-server/server.go" >&2
    fail=1
  fi
done

# Shard wire endpoints: when the README documents the distributed mode,
# the endpoints it names must be mounted by the shard-mode mux.
for ep in /v1/shard/match /v1/shard/stats; do
  if grep -q "$ep" README.md && ! grep -qF "\"$ep\"" cmd/bellflower-server/server.go; then
    echo "README references shard endpoint $ep, which is not registered in cmd/bellflower-server/server.go" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "README.md is out of sync with the server; fix the docs or the code" >&2
  exit 1
fi
echo "README endpoints and flags are in sync"
