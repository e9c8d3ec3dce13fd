#!/usr/bin/env python3
"""Build the CQP benchmark and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload net_zipf --seed 1 --seconds 20 --trace 0

The wrapper builds the benchmark and the `cqp` binary with dune (inside
the checkout: dune's shared cache is off), then runs the benchmark with
the same arguments.  Build output goes to
stderr; the benchmark's last stdout line is its JSON result.  A run that
overstays its time is killed together with every process it started.
"""

import os
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def kill_group(pgid):
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a CQP checkout\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/main.exe", "./bin/cqp_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    cli = os.path.join(build_dir, "default", "bin", "cqp_cli.exe")
    proc = subprocess.Popen([exe, *sys.argv[1:], "--cli", cli],
                            preexec_fn=os.setsid)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    finally:
        kill_group(proc.pid)
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
