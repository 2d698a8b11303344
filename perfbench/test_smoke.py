#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, traced and
untraced, with the same correctness checks as a full run.

    python3 perfbench/test_smoke.py

Run from the root of a checkout; takes well under a minute.  Checks that
each run exits 0, ends with a result line of exactly the documented shape,
reports every metric BENCHMARK.json names with its unit, passes its own
output checks with no failed job, and that the reference command prints a
reference for every program.  Exits non-zero on the first failure.
"""

import json
import math
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args):
    p = subprocess.run(["python3", "perfbench/run.py"] + args,
                       capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (args, p.returncode, p.stderr))
    return p.stdout.strip().splitlines()


def check_result(label, lines, expected):
    result = json.loads(lines[-1])
    problems = [l for l in lines if l.startswith("# problem")]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, (label, problems)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert result["failed"] == 0, label
    names = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(names), (label, set(result["metrics"]) ^ set(names))
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name], (label, name)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
    return result


def main():
    refs = [json.loads(l) for l in run(["--references"])]
    assert all(r["output"] for r in refs), "empty reference"
    for seed, wl in enumerate(WORKLOADS, start=1):
        base = ["--workload", wl, "--seed", str(seed), "--seconds", "1", "--smoke"]
        e2e = check_result(wl, run(base + ["--trace", "0"]), SPEC["end_to_end"])
        for name, m in e2e["metrics"].items():
            assert m["value"] > 0, (wl, name, "an end-to-end metric read 0")
        layers = check_result(wl + " traced", run(base + ["--trace", "1"]), SPEC["per_layer"])
        if wl == "cold-compile":
            # the whole-image abstention the store share exercises
            assert layers["metrics"]["cfa.abstained_image_ratio"]["value"] > 0
        print("ok %s" % wl)


if __name__ == "__main__":
    main()
