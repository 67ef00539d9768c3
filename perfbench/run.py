#!/usr/bin/env python3
"""Build the engine and the end-to-end benchmark from source, run one
workload and relay its result.

    python3 perfbench/run.py --workload compile-cold|exec-warm|serve-rw \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. dune builds perfbench/bench.exe and
bin/serve.exe into .perfbench/_build with its shared cache disabled, so
nothing is written outside the checkout. The last line of standard output
is the result JSON; on any failure no result is printed and the exit code
is not 0.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("compile-cold", "exec-warm", "serve-rw")
BUILD_DIR = os.path.join(".perfbench", "_build")
# Every run ends within 180 s; the build of a fresh checkout is not counted.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def toolchain_path(path):
    """PATH with the OCaml toolchain on it: as given, or else with an opam
    switch's bin directory in front (a shell that never read the opam
    environment)."""
    if shutil.which("dune", path=path):
        return path
    root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
    for bin_dir in sorted(glob.glob(os.path.join(root, "*", "bin"))):
        if os.path.exists(os.path.join(bin_dir, "dune")):
            return bin_dir + os.pathsep + path
    fail("dune not found")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, BUILD_DIR)
    # The engine reads these knobs from the environment; the benchmark
    # fixes its own configuration instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XRQ_")}
    env["DUNE_CACHE"] = "disabled"
    env["PATH"] = toolchain_path(env.get("PATH", os.defpath))

    os.makedirs(build_dir, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "-j", "2", "--display", "quiet",
         "perfbench/bench.exe", "bin/serve.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    serve = os.path.join(build_dir, "default", "bin", "serve.exe")
    # Its own process group, so a timeout also takes down the server the
    # benchmark started.
    proc = subprocess.Popen(
        [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--serve", serve],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
