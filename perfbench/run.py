#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --references

Run it from the root of a checkout.  It builds bin/fpc.exe and the
benchmark with dune, then replaces itself with the benchmark binary, whose
last line of standard output is the run's JSON result.  See README.md in
this directory for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
TARGETS = ["./perfbench/bench.exe", "./bin/fpc.exe"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when run in a git clone, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    for path in ("dune-project", "lib", "bin"):
        if not os.path.exists(path):
            fail("run from the root of a checkout of the repository "
                 "(%s is missing)" % path)
    build = subprocess.run(
        ["dune", "build", "--root", "."] + TARGETS,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    # Run on one vCPU, and the server the benchmark spawns with it: the
    # steal the host reports for that vCPU is then the time stolen from the
    # run (see "Host cost on a shared host" in README.md).
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    args = sys.argv[1:]
    if "--references" not in args:
        args += ["--commit", source_id()]
    sys.stdout.flush()
    os.execv(BENCH, [BENCH] + args)


if __name__ == "__main__":
    main()
