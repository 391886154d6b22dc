#!/usr/bin/env bash
# Daemon round trip, end to end over a real socket:
#   1. start ucr_servd with a fresh cache,
#   2. submit the spec twice through the ucr_cli client,
#   3. assert the second job reports 100% cache hits,
#   4. assert both streamed outputs are byte-identical to each other and
#      to a direct `ucr_cli --spec` run of the same file,
#   5. submit the spec with flag overrides, and an overlay spec, and
#      assert each job streams exactly the rows `ucr_cli --spec` runs
#      with the same flags (--submit sends the merged canonical spec),
#   6. shut the daemon down cleanly over the protocol.
# Usage: service_smoke.sh <ucr_servd> <ucr_cli> <spec-file> <overlay-spec>
set -euo pipefail

servd=$1
cli=$2
spec=$3
overlay=$4

work=$(mktemp -d)
sock="$work/ucr.sock"
servd_pid=""
cleanup() {
  if [ -n "$servd_pid" ] && kill -0 "$servd_pid" 2>/dev/null; then
    kill "$servd_pid" 2>/dev/null || true
    wait "$servd_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

"$servd" --socket="$sock" --cache="$work/cache" 2>"$work/servd.log" &
servd_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || { echo "daemon never came up"; cat "$work/servd.log"; exit 1; }

# The shipped shard-example grid contains a deliberately capped livelock
# cell, so the direct run exits 1 (incomplete runs) — capture the rows,
# not the exit code.
"$cli" --spec="$spec" >"$work/direct.jsonl" || true

"$cli" --submit="$spec" --socket="$sock" --wait \
  >"$work/job1.jsonl" 2>"$work/job1.summary"
"$cli" --submit="$spec" --socket="$sock" --wait \
  >"$work/job2.jsonl" 2>"$work/job2.summary"

cat "$work/job1.summary" "$work/job2.summary"

grep -q "(100%)" "$work/job2.summary" || {
  echo "second job was not fully cached"; exit 1
}
cmp "$work/job1.jsonl" "$work/job2.jsonl" || {
  echo "warm job rows differ from cold job rows"; exit 1
}
cmp "$work/job1.jsonl" "$work/direct.jsonl" || {
  echo "daemon rows differ from direct ucr_cli --spec run"; exit 1
}
# Rows actually flowed (guards against vacuous empty-vs-empty passes).
[ -s "$work/job1.jsonl" ] || { echo "no rows streamed"; exit 1; }

# A job is the merged spec: flags apply over the file (here shrinking the
# grid to one cell), and an overlay arrives with its include resolved.
check_submit() {
  local name=$1
  shift
  "$cli" "--spec=$1" "${@:2}" --format=jsonl >"$work/$name.direct" || true
  "$cli" "--submit=$1" "${@:2}" --socket="$sock" --wait \
    >"$work/$name.jsonl" 2>"$work/$name.summary" || {
    echo "$name job failed"; cat "$work/$name.summary"; exit 1
  }
  cat "$work/$name.summary"
  [ -s "$work/$name.jsonl" ] || { echo "$name job streamed no rows"; exit 1; }
  cmp "$work/$name.jsonl" "$work/$name.direct" || {
    echo "$name job rows differ from ucr_cli --spec with the same flags"
    exit 1
  }
}
check_submit flags "$spec" --ks=10 --runs=1 --shard=0/3
[ "$(wc -l <"$work/flags.jsonl")" -eq 1 ] || {
  echo "flag overrides did not reach the job"; exit 1
}
check_submit overlay "$overlay"

"$cli" --shutdown --socket="$sock"
wait "$servd_pid"
servd_pid=""
echo "service smoke OK"
