#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload w2v12-evict --seed 0 --seconds 10 --trace 0

Run from the repository root. The first call builds the program and the
benchmark from source with sbt (offline) and caches the runtime classpath in
`.bench_build/`; later calls reuse it until a source or build file changes.
The measurement itself runs in one JVM (`repro.perfbench.Main`), whose last
stdout line is the JSON result this script passes through.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
STAMP = os.path.join(BUILD, "stamp.txt")
WORKLOADS = ("w2v12-evict", "tcfine-ingest", "ffnn-churn")

# Inputs of the build: a change to any of them triggers a rebuild.
SOURCE_ROOTS = ("src/main", "jobs", "perfbench/src/main", "project", "perfbench/project")
BUILD_FILES = ("build.sbt", "perfbench/build.sbt")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    files = [f for f in BUILD_FILES if os.path.isfile(f)]
    for top in SOURCE_ROOTS:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".scala", ".sbt", ".properties"))]
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(stamp):
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    env["SBT_OPTS"] = " ".join([
        "-Dsbt.override.build.repos=true",
        "-Dsbt.repository.config=" + os.path.expanduser("~/.sbt/repositories"),
        "-Dsbt.offline=true",
        "-Dsbt.server.autostart=false",
        "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
        "-Xmx2g",
    ])
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export perfbench/Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=840)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "[" in lines[-1]:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")
    with open(CLASSPATH, "w") as fh:
        fh.write(lines[-1])
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("run from the repository root: the program's sources are missing")
    stamp = source_stamp()
    cached = open(STAMP).read() if os.path.isfile(STAMP) else None
    if cached != stamp or not os.path.isfile(CLASSPATH):
        build(stamp)
    cp = open(CLASSPATH).read().strip()

    cmd = ["java", "-Xms1g", "-Xmx1g", "-Xmn256m", "-XX:+UseSerialGC", "-cp", cp,
           "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", BUILD]
    proc = subprocess.run(cmd, timeout=170)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
