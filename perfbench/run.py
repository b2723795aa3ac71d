#!/usr/bin/env python3
"""Build and run the RecStep benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <csda|aa|cc|tc> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call compiles the engine (src/main/scala) and the benchmark
(perfbench/src) with the Scala compiler shipped in Spark's jars directory,
into .bench_build/perfbench; later calls reuse the classes while the sources
are unchanged. The JVM prints the result object as the last line of output.
Everything the run writes stays under .bench_build.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(BUILD, "tmp")
LOCAL_DIRS = os.path.join(TMP, "spark-local")
HEAP = "3g"
YOUNG = "256m"
# C1 only: a run lasts under a minute, too short for C2 to finish compiling
# Spark's planner, so with C2 the measured evaluations timed the compiler's
# progress (eval_s and cpu_s spread 17-29% across seeds on a 4-vCPU VM). C1
# settles within two evaluations at about the speed C2 reaches by the end of
# such a run.
JIT = "-XX:TieredStopAtLevel=1"
RUN_TIMEOUT_S = 175

JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(BENCH, "src", "**", "*.scala"), recursive=True))
    if not program:
        fail("no program sources under src/main/scala; run from a checkout of the repository")
    if not bench:
        fail("no benchmark sources under perfbench/src")
    return program + bench


def jars():
    """Spark's jars: from $SPARK_HOME, else from the first spark-submit on
    PATH that sits in a Spark distribution with a Scala compiler.
    """
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep) if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in filter(None, homes):
        found = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
        if any(os.path.basename(j).startswith("scala-compiler") for j in found):
            return found
    fail("no Spark distribution with a Scala compiler found; set SPARK_HOME")


def java(cp, jvm_args, main_args):
    """The JVM command line of every run and of the archive recording, which
    must match for the archive to be used.
    """
    return ["java", "-XX:-UsePerfData", JIT, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}", *JVM_OPENS,
            f"-Djava.io.tmpdir={TMP}",
            f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
            "-Dspark.callstack.depth=200",
            f"-Dspark.sql.warehouse.dir={os.path.join(TMP, 'warehouse')}",
            f"-Dperfbench.cache={os.path.join(ROOT, '.bench_build', 'refcache')}",
            *jvm_args, "-cp", os.pathsep.join(cp), "perfbench.Main", *main_args]


def build(srcs, spark_jars, env):
    """Compile into a jar unless the sources' fingerprint is unchanged, then
    record a class-data archive from a self-test run: it halves JVM and Spark
    start-up, which every run pays.
    """
    h = hashlib.sha256()
    own = [os.path.join(BENCH, "run.py"), os.path.join(BENCH, "log4j2.properties")]
    for path in srcs + own + spark_jars:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        if not path.endswith(".jar"):
            with open(path, "rb") as f:
                h.update(f.read())
    fingerprint = h.hexdigest()
    jar = os.path.join(BUILD, "perfbench.jar")
    archive = os.path.join(BUILD, "classes.jsa")
    stamp = os.path.join(BUILD, "fingerprint")
    cp = [jar] + spark_jars
    if os.path.exists(stamp) and open(stamp).read() == fingerprint:
        return cp, archive, fingerprint
    shutil.rmtree(BUILD, ignore_errors=True)
    classes = os.path.join(BUILD, "classes")
    os.makedirs(classes)
    os.makedirs(LOCAL_DIRS)
    argfile = os.path.join(BUILD, "sources.txt")
    with open(argfile, "w") as f:
        f.write("\n".join(srcs) + "\n")
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    rc = subprocess.call(
        ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={TMP}",
         "-cp", os.pathsep.join(spark_jars), "scala.tools.nsc.Main",
         "-nowarn", "-d", classes, "-classpath", os.pathsep.join(spark_jars), f"@{argfile}"],
        stdout=sys.stderr)
    if rc != 0:
        fail("compilation failed")
    with zipfile.ZipFile(jar, "w") as z:
        for d, _, files in os.walk(classes):
            for name in sorted(files):
                z.write(os.path.join(d, name), os.path.relpath(os.path.join(d, name), classes))
    log = os.path.join(BUILD, "archive.log")
    print(f"perfbench: recording the class-data archive from a self-test run (log: {log})", file=sys.stderr)
    with open(log, "w") as out:
        try:
            subprocess.run(java(cp, [f"-XX:ArchiveClassesAtExit={archive}"], ["--self-test"]),
                           env=env, cwd=ROOT, stdout=out, stderr=out, timeout=600)
        except subprocess.TimeoutExpired:
            pass
    with open(stamp, "w") as f:
        f.write(fingerprint)
    return cp, archive, fingerprint


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    srcs = sources()
    spark_jars = jars()
    env = dict(os.environ, SPARK_LOCAL_DIRS=LOCAL_DIRS)
    cp, archive, fingerprint = build(srcs, spark_jars, env)
    share = [f"-XX:SharedArchiveFile={archive}"] if os.path.exists(archive) else []
    cmd = java(cp, share + [f"-Dperfbench.git_rev={git_rev()}", f"-Dperfbench.source_sha256={fingerprint}"],
               sys.argv[1:])
    try:
        rc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    sys.exit(rc)


if __name__ == "__main__":
    main()
