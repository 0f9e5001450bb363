#!/usr/bin/env python3
"""Build and run one perfbench workload of pnut.

    python3 perfbench/run.py --workload pipeline|ring \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's src/)
in Release into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs only rebuild what changed. The measuring binary prints its detail lines
and, last, the result object; this script passes them through, prints a
host stamp (nproc, compiler, build type, git commit, date) just before the
result, and appends stamp and result to perfbench-runs.jsonl in the build
directory. With --trace 1 the spans go to perfbench-trace-<workload>-<seed>.jsonl
there too.

Exit status: the binary's (0 only when every operation succeeded and every
output check passed); 2 when the build or the run itself fails, in which
case no result line is printed.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pipeline", "ring")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure and build; on failure the build log goes to stderr."""
    bench_build = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(root / "perfbench"), "-B", str(bench_build),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bench_build), "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bench_build / "perfbench"


def git_commit(root):
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest(root):
    """Hash of the program and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "bench", "examples/models"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp(root, build_line, args):
    compiler, build_type = "unknown", "unknown"
    prefix = "perfbench build: compiler "
    if build_line.startswith(prefix):
        compiler, _, build_type = build_line[len(prefix):].partition(", build type ")
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": build_type.strip(),
        "git_commit": git_commit(root),
        "source_sha256_16": source_digest(root),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1988)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build(root, build_dir)

    work = build_dir / f"perfbench-work-{os.getpid()}"
    trace_out = build_dir / f"perfbench-trace-{args.workload}-{args.seed}.jsonl"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--work", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(stdout)
        fail(f"no result line (exit code {proc.returncode})")

    stamp = host_stamp(root, lines[0], args)
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(stamp, sort_keys=True))
    with open(build_dir / "perfbench-runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"host": stamp, "exit_code": proc.returncode,
                              "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode if proc.returncode in (0, 1) else 2)


if __name__ == "__main__":
    main()
