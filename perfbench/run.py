#!/usr/bin/env python3
"""Run one workload of the NebulaMEOS benchmark and print its result.

    python3 perfbench/run.py --workload stream-bulk --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The first run compiles the program's
sources (src/main/scala, plus the RowCompare comparator from
src/test/scala) together with perfbench/src into .bench_build/, using the
Scala compiler that ships with the Spark distribution ($SPARK_HOME, or
/opt/spark). Later runs reuse the build while the sources are unchanged.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics, writes the spans to
.bench_build/traces/ and reports tracing overhead against the last
untraced run of the same workload in this checkout (running one first if
there is none). See perfbench/NOTES.md.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("stream-bulk", "zones-2026")
DRIVER_HEAP = "3g"
# The client compiler only. A run is one short JVM, and the optimising
# compiler is still compiling through its timed window, at a pace that
# differs from run to run; with C1 alone the code reaches its final form
# during warm-up, which makes runs comparable. C1 alone fills the default
# code cache, hence the larger one.
JIT_FLAGS = ["-XX:TieredStopAtLevel=1", "-XX:ReservedCodeCacheSize=256m"]
# A heap of fixed size and the throughput collector. With G1 and a heap
# that grows from its default initial size, how often and how long the
# collector paused differed from run to run, and so did the triggers it
# fell into.
GC_FLAGS = [f"-Xms{DRIVER_HEAP}", "-XX:+UseParallelGC"]
# One run must end within 180 s of starting, not counting the build.
RUN_DEADLINE_S = 175
ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    main = sorted(glob.glob(os.path.join(ROOT, "src/main/scala/**/*.scala"), recursive=True))
    compare = os.path.join(ROOT, "src/test/scala/repro/RowCompare.scala")
    bench = sorted(glob.glob(os.path.join(HERE, "src/*.scala")))
    if not main or not os.path.isfile(compare):
        fail("the program's sources (src/main/scala, src/test/scala/repro/RowCompare.scala) "
             "are not in this checkout")
    return main + [compare] + bench


def spark_jars():
    jars = os.path.join(os.environ.get("SPARK_HOME", "/opt/spark"), "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail(f"no Spark distribution with a Scala compiler at {jars}")
    return os.path.join(jars, "*")


def build(srcs, jars):
    """Compile once per distinct set of sources; return (classes dir, digest)."""
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    digest = h.hexdigest()[:16]
    out = os.path.join(WORK, f"classes-{digest}")
    if os.path.isfile(os.path.join(out, ".done")):
        return out, digest
    for old in glob.glob(os.path.join(WORK, "classes-*")):
        shutil.rmtree(old, ignore_errors=True)
    os.makedirs(out)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", jars, "scala.tools.nsc.Main",
           "-usejavacp", "-classpath", out, "-d", out, "-nowarn"] + srcs
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if r.returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        fail("compilation failed")
    open(os.path.join(out, ".done"), "w").close()
    return out, digest


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_jvm(classes, jars, digest, a, trace, deadline):
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xmx{DRIVER_HEAP}", *GC_FLAGS, *JIT_FLAGS, f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-cp", f"{classes}{os.pathsep}{jars}", "perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", "1" if trace else "0", "--work-dir", WORK,
              "--fact-git_commit", git_commit(), "--fact-source_sha256", digest,
              "--fact-driver_heap", DRIVER_HEAP, "--fact-gc_flags", " ".join(GC_FLAGS),
              "--fact-jit_flags", " ".join(JIT_FLAGS)])
    if a.tiny:
        cmd += ["--tiny", "1"]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail(f"{a.workload} did not finish within {RUN_DEADLINE_S} s")
    lines = out.splitlines()
    results = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    if p.returncode != 0 or not results:
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith("PERFBENCH_RESULT ")))
        fail(f"{a.workload} exited with code {p.returncode} and no result")
    for l in lines:
        if not l.startswith("PERFBENCH_RESULT "):
            print(l)
    return json.loads(results[-1][len("PERFBENCH_RESULT "):])


def numbers(metrics, res):
    """Metric values must be numbers; a query that failed may leave one
    undefined, which then reads 0 (the failure is in `failed`)."""
    for name, m in metrics.items():
        if m["value"] is None:
            if res["failed"] == 0:
                fail(f"metric {name} is undefined although nothing failed")
            m["value"] = 0.0
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test size: checks metric names only")
    a = ap.parse_args()

    srcs = sources()
    jars = spark_jars()
    os.makedirs(WORK, exist_ok=True)
    classes, digest = build(srcs, jars)
    deadline = time.monotonic() + RUN_DEADLINE_S
    store = os.path.join(WORK, "results", f"{a.workload}{'-tiny' if a.tiny else ''}.json")

    if a.trace == 0:
        res = run_jvm(classes, jars, digest, a, trace=False, deadline=deadline)
        metrics = numbers(res["e2e"], res)
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w") as f:
            json.dump({"seed": a.seed, "e2e": metrics}, f)
    else:
        if not os.path.isfile(store):
            print("# no untraced run of this workload yet: running one for the overhead baseline")
            base = run_jvm(classes, jars, digest, a, trace=False, deadline=deadline)
            os.makedirs(os.path.dirname(store), exist_ok=True)
            with open(store, "w") as f:
                json.dump({"seed": a.seed, "e2e": numbers(base["e2e"], base)}, f)
        with open(store) as f:
            untraced = json.load(f)
        res = run_jvm(classes, jars, digest, a, trace=True, deadline=deadline)
        metrics = numbers(res["layer"], res)
        traced = numbers(res["e2e"], res)
        for name, m in traced.items():
            u = untraced["e2e"].get(name)
            if u is not None:
                metrics[f"trace.overhead.{name}"] = {"value": m["value"] - u["value"], "unit": m["unit"]}
                print(f"tracing overhead {name}: {m['value'] - u['value']:+.4f} {m['unit']} "
                      f"(traced {m['value']:.4f}, untraced {u['value']:.4f} at seed {untraced['seed']})")

    print(f"failed_frac {res['failed'] / max(1, res['attempted']):.4f} "
          f"({res['failed']} failed of {res['attempted']} operations)")
    print(json.dumps({"correct": res["correct"] and res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
