#!/bin/sh
# serve_smoke.sh — boot `cryowire serve` on a random port, probe the
# operational endpoints, and verify that the experiment endpoint's JSON
# is byte-identical to the CLI's `-json` output for the same options.
#
# Used by `make serve-smoke` (part of `make check`).
set -eu

TMP=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/cryowire" ./cmd/cryowire

"$TMP/cryowire" serve -addr 127.0.0.1:0 2>"$TMP/serve.log" &
SERVER_PID=$!

# The server logs `listening addr=127.0.0.1:PORT`; wait for it.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening addr=\([0-9.:]*\).*/\1/p' "$TMP/serve.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve-smoke: server died:"; cat "$TMP/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-smoke: server never reported its address"; cat "$TMP/serve.log"; exit 1; }
URL="http://$ADDR"

fetch() { # fetch <url> — GET with curl, falling back to wget
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

post() { # post <url> <json-body> — POST with curl, falling back to wget
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H 'Content-Type: application/json' --data "$2" "$1"
    else
        wget -qO- --header 'Content-Type: application/json' --post-data "$2" "$1"
    fi
}

echo "serve-smoke: serving on $URL"

# 1. Operational endpoints answer. /healthz is JSON carrying the same
# build info as `cryowire -version`.
fetch "$URL/healthz" | grep -q '"status": "ok"' || { echo "serve-smoke: /healthz broken"; exit 1; }
fetch "$URL/healthz" | grep -q '"go": "go' || { echo "serve-smoke: /healthz missing build info"; exit 1; }
[ "$(fetch "$URL/readyz")" = "ready" ] || { echo "serve-smoke: /readyz broken"; exit 1; }
fetch "$URL/metrics" | grep -q cryowire_response_cache_misses_total || {
    echo "serve-smoke: /metrics missing response cache series"; exit 1; }

# 2. The experiment endpoint must match the CLI byte for byte.
post "$URL/v1/experiments/fig22" '{"quick":true}' >"$TMP/server.json"
"$TMP/cryowire" -quick -json fig22 >"$TMP/cli.json"
if ! cmp -s "$TMP/server.json" "$TMP/cli.json"; then
    echo "serve-smoke: /v1/experiments/fig22 differs from 'cryowire -quick -json fig22':"
    diff "$TMP/cli.json" "$TMP/server.json" || true
    exit 1
fi

# 3. The design-space endpoint must match `cryowire dse -json` too.
post "$URL/v1/dse" '{"quick":true,"budget":4,"strategy":"random","seed":7}' >"$TMP/server-dse.json"
"$TMP/cryowire" dse -quick -budget 4 -strategy random -seed 7 -json >"$TMP/cli-dse.json"
if ! cmp -s "$TMP/server-dse.json" "$TMP/cli-dse.json"; then
    echo "serve-smoke: /v1/dse differs from 'cryowire dse -quick -budget 4 -strategy random -seed 7 -json':"
    diff "$TMP/cli-dse.json" "$TMP/server-dse.json" || true
    exit 1
fi

# 4. The temperature-stage endpoint must match `cryowire stage -json`.
post "$URL/v1/stage" '{"quick":true}' >"$TMP/server-stage.json"
"$TMP/cryowire" stage -quick -json >"$TMP/cli-stage.json"
if ! cmp -s "$TMP/server-stage.json" "$TMP/cli-stage.json"; then
    echo "serve-smoke: /v1/stage differs from 'cryowire stage -quick -json':"
    diff "$TMP/cli-stage.json" "$TMP/server-stage.json" || true
    exit 1
fi

# 5. Graceful shutdown: SIGTERM must drain and exit cleanly.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "serve-smoke: server exited non-zero on SIGTERM"; cat "$TMP/serve.log"; exit 1; }
grep -q drained "$TMP/serve.log" || { echo "serve-smoke: no drain log line"; cat "$TMP/serve.log"; exit 1; }

echo "serve-smoke: OK (server JSON is byte-identical to CLI -json)"
