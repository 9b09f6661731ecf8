#!/usr/bin/env bash
# Smoke test: every workload at counts / 20, untraced and traced. Asserts
# only that the output checks pass, nothing failed, and every metric named
# in BENCHMARK.json is printed. Run from anywhere:
#   bash benchmark/smoke.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

for workload in pipeline_join serve_distinct serve_repeat router_repeat; do
  for trace in 0 1; do
    echo "== $workload --trace $trace"
    bash "$here/run.sh" --workload "$workload" --seed 7 --seconds 1 --trace "$trace" \
      | tail -n 1 \
      | python3 -c '
import json, sys
contract = json.load(open(sys.argv[1]))
traced = sys.argv[2] == "1"
result = json.loads(sys.stdin.read())
assert result["correct"] is True, "output checks failed"
assert result["failed"] == 0 and result["attempted"] >= 1, result
want = [m["name"] for m in contract["per_layer" if traced else "end_to_end"]]
assert sorted(result["metrics"]) == sorted(want), set(want) ^ set(result["metrics"])
for name, m in result["metrics"].items():
    assert isinstance(m["value"], (int, float)) and m["unit"], name
    assert traced or m["value"] > 0, name + " is zero"
print("ok:", len(want), "metrics")
' "$root/BENCHMARK.json" "$trace"
  done
done
echo "smoke: all workloads passed"
