"""Self-test of the benchmark itself, at a tiny input size.

    python3 perfbench/selftest.py

For every workload it checks that:

* an untraced run prints exactly the end-to-end metrics named in
  ``BENCHMARK.json``, with their units, and reports no failed operation;
* a run that corrupts one delivered table before the output check reports
  it as a failed operation (and ``correct: false``);
* a traced run prints exactly the per-layer metrics named in
  ``BENCHMARK.json``, and the layers the workload exists to exercise read
  non-zero.

Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} {extra} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from layers import EXERCISED, PER_LAYER
    from run import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == dict(END_TO_END), "BENCHMARK.json lists run.py's end-to-end metrics")
    expect(per_layer == dict(PER_LAYER), "BENCHMARK.json lists layers.py's per-layer metrics")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists every workload")

    for workload in WORKLOADS:
        plain = bench(workload)
        units = {k: v["unit"] for k, v in plain["metrics"].items()}
        expect(units == e2e, f"{workload}: all end-to-end metrics with units")
        expect(plain["correct"] and plain["failed"] == 0
               and plain["attempted"] > 0,
               f"{workload}: zero failed operations")

        broken = bench(workload, "--corrupt", "1")
        expect(broken["failed"] >= 1 and not broken["correct"],
               f"{workload}: a corrupted table counts as a failed operation")

        traced = bench(workload, "--trace", "1")
        units = {k: v["unit"] for k, v in traced["metrics"].items()}
        expect(units == per_layer, f"{workload}: all per-layer metrics with units")
        idle = [name for name in EXERCISED[workload]
                if not traced["metrics"][name]["value"]]
        expect(not idle, f"{workload}: exercised layers are non-zero"
               + (f" (zero: {idle})" if idle else ""))
        expect(traced["correct"], f"{workload}: traced run correct")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
