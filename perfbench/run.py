#!/usr/bin/env python3
"""Build the program from source and run one perfbench workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call builds, under .bench_build/, the library and primacyd with
the repository's own CMake build (tests, benches and examples off) and then
the perfbench binary against it; later calls rebuild only when a source file
changed. Build output goes to .bench_build/build.log. The binary's output is
passed through: one context line, then the result object as the last line.

--self-test runs every workload briefly with one reply corrupted on purpose
and exits 0 only if each run counts exactly that one operation as failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "primacy"
BENCH_BUILD = BUILD / "perfbench"
PRIMACYD = LIB_BUILD / "tools" / "primacyd"
BINARY = BENCH_BUILD / "perfbench"
STAMP = BUILD / "source.digest"
WORKLOADS = ("bulk_roundtrip", "range_read", "daemon_cold", "daemon_hot")
# Everything the two builds read; a change to any of it triggers a rebuild.
SOURCE_DIRS = ("src", "tools", "cmake", "perfbench")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in SOURCE_DIRS:
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(digest):
    if (STAMP.exists() and STAMP.read_text() == digest and PRIMACYD.exists()
            and BINARY.exists()):
        return
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
         "-DCMAKE_BUILD_TYPE=Release", "-DPRIMACY_BUILD_TESTS=OFF",
         "-DPRIMACY_BUILD_BENCH=OFF", "-DPRIMACY_BUILD_EXAMPLES=OFF",
         "-DPRIMACY_BUILD_TOOLS=ON", "-DPRIMACY_CCACHE=OFF"],
        ["cmake", "--build", str(LIB_BUILD), "-j", jobs, "--target", "primacyd"],
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BENCH_BUILD),
         "-DCMAKE_BUILD_TYPE=Release", f"-DPRIMACY_BUILD_DIR={LIB_BUILD}"],
        ["cmake", "--build", str(BENCH_BUILD), "-j", jobs],
    ]
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)}", 3)
    STAMP.write_text(digest)


def run_binary(argv):
    """Runs the binary with stdout passed through; returns its exit code."""
    proc = subprocess.Popen([str(BINARY)] + argv, cwd=ROOT)
    try:
        return proc.wait()
    except KeyboardInterrupt:
        # The binary got the same SIGINT; let it stop its daemon and exit.
        try:
            return proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return 130


def self_test(common):
    """Each workload with one corrupted reply must count exactly one failure."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", "1",
             "--seconds", "2", "--trace", "0", "--self-test"] + common,
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        good = (proc.returncode == 0 and result.get("correct") is True
                and result.get("failed") == 1)
        ok &= good
        print(f"{workload}: attempted={result.get('attempted')} "
              f"failed={result.get('failed')} -> "
              f"{'caught' if good else 'NOT CAUGHT'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no PRIMACY source tree to build")
    digest = source_digest()
    build(digest)
    os.chdir(ROOT)
    common = ["--primacyd", str(PRIMACYD.relative_to(ROOT)),
              "--git-sha", git_sha(), "--source-digest", digest[:16]]
    if args.self_test and args.workload is None:
        return self_test(common)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.self_test:
        argv.append("--self-test")
    return run_binary(argv + common)


if __name__ == "__main__":
    sys.exit(main())
