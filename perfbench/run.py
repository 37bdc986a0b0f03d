#!/usr/bin/env python3
"""Builds the perfbench program (Release) from this checkout and runs it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload submit_hit --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
the unix socket and the traced run's Chrome trace go to <build root>/out.
Build output is sent to stderr, so the last stdout line is the program's
result JSON. Arguments other than the four above are passed to the program.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("submit_hit", "estimate_mp3", "search_mp3", "fuzz_campaign")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git revision when the checkout is a repository of its own,
    otherwise a digest of the sources the benchmark builds."""
    if shutil.which("git"):
        try:
            top = subprocess.run(
                ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30)
            lines = top.stdout.split()
            if top.returncode == 0 and len(lines) == 2 and \
                    os.path.realpath(lines[0]) == os.path.realpath(ROOT):
                return lines[1]
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DSEGBUS_GIT_HASH={source_revision()}"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for command in (configure,
                    ["cmake", "--build", build_dir, "-j", jobs]):
        try:
            done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(command)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake is required to build the benchmark")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)
    program = build(os.path.join(build_root, "perfbench"))

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               # Relative, so the unix socket path stays short.
               "--out-dir", os.path.relpath(out_dir, ROOT)] + extra
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
