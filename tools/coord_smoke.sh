#!/usr/bin/env bash
# Coordinator round trip, end to end over real processes:
#   1. run the sweep directly with `ucr_cli --spec` (the reference bytes),
#   2. run the same sweep through ucr_coordd over a 3-worker fleet whose
#      third worker is rigged to die mid-shard (UCR_ABORT_MODE=kill via a
#      generic `exec:` launcher), and assert the assembled archive is
#      byte-identical to the direct run and that at least one attempt was
#      retried,
#   3. park a coordinator on a never-progressing worker, drive the
#      control socket with ucr_coordctl (--ping, --status --json), then
#      send it SIGTERM and assert that it exits non-zero, kills the worker
#      and removes the socket.
# Usage: coord_smoke.sh <ucr_coordd> <ucr_coordctl> <ucr_cli>
set -euo pipefail

coordd=$1
coordctl=$2
cli=$3

work=$(mktemp -d)
coordd_pid=""
cleanup() {
  if [ -n "$coordd_pid" ] && kill -0 "$coordd_pid" 2>/dev/null; then
    kill "$coordd_pid" 2>/dev/null || true
    wait "$coordd_pid" 2>/dev/null || true
  fi
  # Should the SIGTERM check fail, the stalled worker still goes.
  if [ -s "$work/stall.pid" ]; then
    kill "$(cat "$work/stall.pid")" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

# The sweep under test: the paper protocol set on a small grid, JSONL so
# shard concatenation is exercised against real streaming output. 15
# cells over 3 shards = 5 cells per shard, so the rigged worker (which
# dies when the 2nd cell is emitted) always dies mid-shard.
"$cli" --protocols=paper --ks=40,80,160 --runs=4 --seed=7 \
  --format=jsonl --threads=1 --dump-spec >"$work/base.spec"

"$cli" --spec="$work/base.spec" >"$work/direct.jsonl"

cat >"$work/fleet.workers" <<EOF
# two healthy local workers and one that dies mid-shard
local name=good-1
local name=good-2
exec name=killer: env UCR_ABORT_AFTER_CELLS=1 UCR_ABORT_MODE=kill
EOF

"$coordd" --spec="$work/base.spec" --workers="$work/fleet.workers" \
  --cli="$cli" --work-dir="$work/coord" --shards=3 \
  --output="$work/coord.jsonl" 2>"$work/coordd.log"

cat "$work/coordd.log"
if grep -q "(0 retried)" "$work/coordd.log"; then
  echo "rigged worker never died — the retry path was not exercised"
  exit 1
fi
cmp "$work/coord.jsonl" "$work/direct.jsonl" || {
  echo "coordinator archive differs from direct ucr_cli --spec run"
  exit 1
}
[ -s "$work/coord.jsonl" ] || { echo "no rows assembled"; exit 1; }

# Control plane: a one-worker fleet that never writes output keeps the
# run parked (heartbeat far above the test timeout), so the socket can be
# driven deterministically while the shard is "running". The worker
# records its pid and execs the sleep, so the process the coordinator
# spawned is the one whose end is checked below.
cat >"$work/stall.sh" <<EOF
#!/bin/sh
echo \$\$ >"$work/stall.pid"
exec sleep 600
EOF
chmod +x "$work/stall.sh"
printf 'exec name=stall: %s\n' "$work/stall.sh" >"$work/stall.workers"

sock="$work/coord.sock"
"$coordd" --spec="$work/base.spec" --workers="$work/stall.workers" \
  --cli="$cli" --work-dir="$work/coord2" --shards=1 --heartbeat=600 \
  --socket="$sock" --output="$work/unused.jsonl" \
  2>"$work/coordd2.log" &
coordd_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || { echo "control socket never came up"; cat "$work/coordd2.log"; exit 1; }

"$coordctl" --socket="$sock" --ping
"$coordctl" --socket="$sock" --status
# The socket opens just before the scheduling loop starts, so poll until
# the stalled worker has actually been handed its shard and has started.
for _ in $(seq 1 100); do
  "$coordctl" --socket="$sock" --status --json >"$work/status.json"
  if grep -q '"busy":1' "$work/status.json" && [ -s "$work/stall.pid" ]
  then break; fi
  sleep 0.1
done
cat "$work/status.json"
grep -q '"state":"running"' "$work/status.json" || {
  echo "status --json did not report a running coordinator"; exit 1
}
grep -q '"workers":\[{"name":"stall","capacity":1,"busy":1' \
  "$work/status.json" || {
  echo "status --json did not report the stalled worker as busy"; exit 1
}

# SIGTERM stops the coordinator within a few seconds: non-zero exit, an
# error naming the signal, its worker killed and its socket removed. A
# zombie awaiting `wait` counts as exited.
running() {
  local state
  state=$(ps -o stat= -p "$1" 2>/dev/null) && [ "${state#Z}" = "$state" ]
}
stall_pid=$(cat "$work/stall.pid")
kill "$coordd_pid"
for _ in $(seq 1 50); do
  running "$coordd_pid" || break
  sleep 0.1
done
if running "$coordd_pid"; then
  echo "coordinator still running 5 s after SIGTERM"; exit 1
fi
code=0
wait "$coordd_pid" || code=$?
coordd_pid=""
cat "$work/coordd2.log"
[ "$code" -ne 0 ] || { echo "coordinator exited 0 after SIGTERM"; exit 1; }
grep -q "stopped by signal 15" "$work/coordd2.log" || {
  echo "no error names the signal"; exit 1
}
for _ in $(seq 1 50); do
  running "$stall_pid" || break
  sleep 0.1
done
if running "$stall_pid"; then
  echo "stalled worker $stall_pid outlived the coordinator"; exit 1
fi
[ ! -e "$sock" ] || { echo "control socket left behind"; exit 1; }
echo "coord smoke OK"
