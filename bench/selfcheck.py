"""Short self-check of the benchmark.

Runs every workload briefly, untraced and traced, and asserts that no op
failed and that exactly the metrics named in BENCHMARK.json are emitted,
with their units.  Then checks that, in a directory holding only
BENCHMARK.json and the benchmark's files, the benchmark exits non-zero
without printing a result.  Run from the root of a checkout::

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, seconds=2):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, wl, trace)
            tag = f"{wl} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-600:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{tag}: fail_ratio {res['failed']}/{res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, unit mismatch {units}")
            print(f"{tag}: {res['attempted']} ops, {res['failed']} failed, "
                  f"{len(got)} metrics", flush=True)

    # without the linflow sources the benchmark must fail cleanly
    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append(f"bare directory: exit {proc.returncode}, last line {last[0]!r}")
    else:
        print(f"bare directory: exit {proc.returncode}, no result printed")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
