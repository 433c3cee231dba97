#!/usr/bin/env python3
"""Run one alarm-verification benchmark measurement.

    python3 perfbench/run.py --workload stream|train --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the benchmark
(perfbench/build.sbt, which compiles the system's sources with the benchmark
program) and keeps its classes under .bench_build/, one copy per state of the
sources, so a run reuses the build of exactly the sources it finds. Each
run then starts one JVM with a fixed heap; the last line of standard output
is the result JSON.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
# Sources the build reads: the system under test and the benchmark itself.
SOURCES = ["src/main", "jobs", "perfbench/src/main", "perfbench/build.sbt",
           "perfbench/project/build.properties"]
# build.sbt would fork any JVM with -Xmx48g when SPARK_DRIVER_MEM is unset.
HEAP = "4g"
MAIN = "repro.perfbench.Bench"
# A first run, build included, must end within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout, kill the whole group."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def build(digest):
    """Compile with sbt and keep this build's classes; returns the classpath.

    sbt writes every build into the same perfbench/target directories, so the
    classes of each source digest are copied into .bench_build/<digest>/ and
    the classpath points there. A checkout that goes back to sources built
    before then runs their own classes, not those of the last build.
    """
    out_dir = os.path.join(BUILD, digest[:16])
    stamp = os.path.join(out_dir, "classpath")
    if os.path.exists(stamp):
        with open(stamp) as f:
            return f.read().strip()
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        # build.sbt takes Spark's jars from the installation: the first
        # directory on PATH with spark-submit and a sibling jars/ directory.
        homes = [os.path.dirname(os.path.realpath(d)) for d in env.get("PATH", "").split(os.pathsep)
                 if os.path.isfile(os.path.join(d, "spark-submit"))]
        homes = [h for h in homes if os.path.isdir(os.path.join(h, "jars"))]
        if not homes:
            fail("set SPARK_HOME or put Spark's bin/ on PATH")
        env["SPARK_HOME"] = homes[0]
    t0 = time.time()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code})")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    entries = []
    for i, entry in enumerate(lines[-1].strip().split(os.pathsep)):
        if os.path.isdir(entry) and os.path.realpath(entry).startswith(os.path.realpath(BENCH) + os.sep):
            copy = os.path.join(out_dir, f"{i}-{os.path.basename(entry)}")
            shutil.copytree(entry, copy)
            entry = copy
        entries.append(entry)
    classpath = os.pathsep.join(entries)
    # The stamp is written last, so an interrupted copy is redone next time.
    with open(stamp, "w") as f:
        f.write(classpath)
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    return classpath


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    for top in SOURCES:
        if not os.path.exists(os.path.join(ROOT, top)):
            fail(f"{top} not found: run from the root of a full checkout")
    digest = source_digest()
    classpath = build(digest)

    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "tmp"))
    env = dict(os.environ, SPARK_DRIVER_MEM=HEAP, SPARK_LOCAL_DIRS=tmp)
    # The deployment defaults of repro.jobs.JobSession apply, whatever the shell has set.
    for k in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(k, None)
    with open(os.path.join(BENCH, "jvm.opts")) as f:
        jvm_opts = [l.strip() for l in f if l.strip()]
    cmd = (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
            f"-Dperfbench.commit={commit() or 'src-sha256:' + digest[:16]}"]
           + jvm_opts + ["-cp", classpath, MAIN,
                         "--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", a.trace])
    try:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"benchmark exited with {code}")


if __name__ == "__main__":
    main()
