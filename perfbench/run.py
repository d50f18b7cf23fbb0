#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload pf-grid --seed 1 --seconds 15 --trace 0

Configures perfbench/ as a CMake package of its own (it compiles the
pcbound libraries from src/ with the flags the root build uses), builds it
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs the benchmark binary with the given arguments plus --threads and
--digests. The binary's stdout is passed through; its last line is the
result JSON. Exits non-zero, without a result, when the sources are
missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = "1"


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: pcbound sources (src/) not found next to "
                         "perfbench/; nothing to build\n")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(os.cpu_count() or 1)
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.stderr.write("perfbench: build failed: %s\n" % err)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    args = [binary] + argv
    if "--threads" not in argv:
        args += ["--threads", THREADS]
    if "--digests" not in argv and "--record-digests" not in argv:
        args += ["--digests", os.path.join(HERE, "digests.txt")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
