#!/usr/bin/env bash
# Runs a command next to busy-loop CPU hog processes and exits with the
# command's status. Races between a thread's observable effect and the
# counters it publishes (a socket closed before its stats move, say) show
# up when the scheduler preempts at the wrong instant; hogs make that
# instant common.
#
#   scripts/with_cpu_hogs.sh [--hogs N] <command> [args...]
#
# N defaults to min(4, nproc) and is capped at nproc.
set -euo pipefail

cpus="$(nproc)"
hogs=$(( cpus < 4 ? cpus : 4 ))
if [[ "${1:-}" == "--hogs" ]]; then
  hogs="$2"
  shift 2
fi
(( hogs > cpus )) && hogs="$cpus"

pids=()
stop_hogs() {
  if (( ${#pids[@]} > 0 )); then
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
  fi
}
trap stop_hogs EXIT

for (( i = 0; i < hogs; i++ )); do
  ( while :; do :; done ) &
  pids+=("$!")
done

"$@"
