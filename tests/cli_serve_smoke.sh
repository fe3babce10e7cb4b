#!/usr/bin/env bash
# End-to-end smoke test for `hypart serve` + loadgen:
#   boot the daemon on a Unix socket, fire a two-stream burst (the second
#   stream must score document cache hits), check the metrics snapshot,
#   then SIGTERM and require a clean exit.
#
#   usage: cli_serve_smoke.sh <hypart-binary> <loadgen-binary> <workdir>
set -u

HYPART="$1"
LOADGEN="$2"
WORKDIR="$3"

SOCK="$WORKDIR/serve_smoke.sock"
METRICS="$WORKDIR/serve_smoke_metrics.json"
LOG="$WORKDIR/serve_smoke.log"
rm -f "$SOCK" "$METRICS" "$LOG"

"$HYPART" serve --socket "$SOCK" --metrics "$METRICS" >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill -KILL $SERVER_PID 2>/dev/null' EXIT

# Wait for the daemon to bind (it prints the listening line first).
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "FAIL: server socket never appeared"; cat "$LOG"; exit 1
fi

"$LOADGEN" --socket "$SOCK" --requests 16 --streams 2 --rescale --expect-hits
LG_RC=$?
if [ "$LG_RC" -ne 0 ]; then
  echo "FAIL: loadgen exited $LG_RC"; cat "$LOG"; exit 1
fi

# Batch burst over the same daemon: every line carries 8 sub-requests and
# the run must finish hit-heavy with zero error replies (loadgen exits
# non-zero on any error reply when --expect-hits is set).
BATCH_JSON="$WORKDIR/serve_smoke_batch.json"
"$LOADGEN" --socket "$SOCK" --requests 32 --streams 2 --batch 8 --expect-hits \
    --json >"$BATCH_JSON"
LG_RC=$?
if [ "$LG_RC" -ne 0 ]; then
  echo "FAIL: batch loadgen exited $LG_RC"; cat "$LOG" "$BATCH_JSON"; exit 1
fi
if ! grep -q '"batch":8' "$BATCH_JSON"; then
  echo "FAIL: loadgen JSON does not report batch mode"; cat "$BATCH_JSON"; exit 1
fi
if ! grep -q '"rps":' "$BATCH_JSON"; then
  echo "FAIL: loadgen JSON does not report rps"; cat "$BATCH_JSON"; exit 1
fi

# `hypart json` must round-trip against the daemon: for each flag set and
# its params twin, the offline document equals explain's `result`, and its
# `canonical` (both nest keys plus the resolved `params`, i.e. the whole
# document key) equals explain's.  A bad value gets the same message from
# both doors after the "--" / "params." prefix.  The daemon's default space
# is symbolic and the CLI's dense, so every set names its space.
PROG="$WORKDIR/serve_smoke_roundtrip.loop"
cat >"$PROG" <<'EOF'
loop sor { for i = 1 to 24 for j = 1 to 24 A[i, j] = (A[i-1, j] + A[i, j-1]) * 0.5; }
EOF
python3 - "$SOCK" "$PROG" "$HYPART" <<'EOF'
import json, socket, subprocess, sys
sock_path, prog_path, hypart = sys.argv[1:4]
prog = open(prog_path).read()
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
buf = b""

def ask(request):
    global buf
    s.sendall((json.dumps(request) + "\n").encode())
    while b"\n" not in buf:
        chunk = s.recv(65536)
        if not chunk:
            sys.exit("daemon closed the connection before replying")
        buf += chunk
    line, buf = buf.split(b"\n", 1)
    return json.loads(line)

sets = [
    (["--dim", "2", "--space", "symbolic", "--accounting", "barrier", "--tstart", "20"],
     {"dim": 2, "space": "symbolic", "accounting": "barrier", "tstart": 20}),
    (["--space", "dense", "--weighted"], {"space": "dense", "weighted": True}),
    (["--space", "verify", "--pi", "1,1"], {"space": "verify", "pi": [1, 1]}),
    (["--space", "dense", "--accounting", "contention", "--tcalc", "2.5"],
     {"space": "dense", "accounting": "contention", "tcalc": 2.5}),
]
for flags, params in sets:
    out = subprocess.run([hypart, "json", prog_path] + flags, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("hypart json %s exited %d: %s" % (flags, out.returncode, out.stderr))
    offline = json.loads(out.stdout)
    offline_canonical = offline.pop("canonical")
    reply = ask({"id": 1, "op": "explain", "program": prog, "params": params})
    if not reply.get("ok"):
        sys.exit("explain failed: %s" % json.dumps(reply))
    if offline_canonical != reply["canonical"]:
        sys.exit("canonical mismatch for %s:\n  offline: %s\n  daemon:  %s"
                 % (flags, offline_canonical, reply["canonical"]))
    if offline != reply["result"]:
        sys.exit("result mismatch for %s" % flags)

# The one deliberate error reply of this script (the metrics check below
# expects exactly one).
out = subprocess.run([hypart, "json", prog_path, "--dim", "21"], capture_output=True, text=True)
cli = out.stderr.splitlines()[0] if out.stderr else ""
reply = ask({"id": 2, "op": "explain", "program": prog, "params": {"dim": 21}})
error = reply.get("error", {})
serve = error.get("message", "")
if (out.returncode != 64 or error.get("code") != 78
        or not cli.startswith("hypart: --") or not serve.startswith("params.")
        or cli[len("hypart: --"):] != serve[len("params."):]):
    sys.exit("bad --dim / params.dim differ: exit %d, %r vs %r" % (out.returncode, cli, serve))
print("document keys round-trip OK")
EOF
if [ $? -ne 0 ]; then
  echo "FAIL: hypart json / serve explain round-trip"; cat "$LOG"; exit 1
fi

kill -TERM "$SERVER_PID"
SERVER_RC=1
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID"; SERVER_RC=$?; break
  fi
  sleep 0.1
done
trap - EXIT
if [ "$SERVER_RC" -ne 0 ]; then
  echo "FAIL: server exit code $SERVER_RC after SIGTERM"; cat "$LOG"; exit 1
fi

# The daemon wrote its metrics snapshot on the way out: hits > 0, and no
# errors but the one bad params.dim request above.
if ! grep -q '"serve.cache.hit": *[1-9]' "$METRICS"; then
  echo "FAIL: no serve.cache.hit counter in $METRICS"; cat "$METRICS"; exit 1
fi
if ! grep -q '"serve.errors": *1[,}]' "$METRICS"; then
  echo "FAIL: serve.errors is not exactly 1 in $METRICS"; cat "$METRICS"; exit 1
fi
echo "OK"
