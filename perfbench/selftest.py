#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size (`run.py --tiny`),
untraced and traced, and checks that the result line has the contract's
keys, that every metric BENCHMARK.json names is printed with its unit and
a finite number, and that every query output passed the correctness gate.
The tiny size checks names and plumbing only; its numbers mean nothing.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return [f"exit code {r.returncode}: {r.stderr.strip()[-400:]}"]
    res = json.loads(lines[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"gate: correct={res.get('correct')} failed={res.get('failed')} "
                        f"attempted={res.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = res.get("metrics", {})
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"missing {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')} != {unit}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')}")
    problems += [f"not in BENCHMARK.json: {n}" for n in sorted(set(got) - set(want))]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
