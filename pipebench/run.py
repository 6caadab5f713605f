#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/pipebench
(default .bench_build/pipebench), and compiler and program temporary files
to .bench_build/pipebench-tmp. Each run gets a private mkdtemp scratch root
under .bench_build/pipebench-scratch, removed when the run passes and kept
when it fails. A copy of the result with the host description (nproc,
compiler, build type), and the span list of a traced run, go to
.bench_build/pipebench-results. The last line of stdout is the result.

Any integer seed is accepted; it is folded into the range 1..2^32-1 that
the simulator's seeds take, leaving seeds already in that range unchanged.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("collect_gcc", "collect_mp_mem", "analyze_live")
# A run's work grows with --seconds; on the reference host a 20-second run
# takes 20-55 seconds. The limit keeps such a run under three minutes and
# grows in proportion for longer ones.
RUN_TIMEOUT_PER_SECOND = 8.5
RUN_TIMEOUT_MIN_S = 170
SEED_MODULUS = 0xFFFFFFFF


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_child(command, env, capture=False, timeout=None):
    """Runs a command in its own process group and waits for all of it.

    Returns (exit code, captured stdout or None). If the wait ends early,
    through the timeout, SIGTERM or SIGINT, the whole group is killed and
    reaped before the exception goes on.
    """
    process = subprocess.Popen(command, env=env, start_new_session=True,
                               stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = process.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
        raise
    return process.returncode, out


def build(build_dir, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if run_child(configure, env)[0] != 0:
            return None
    jobs = str(len(os.sched_getaffinity(0)))  # the cores nproc counts
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target", "pipebench"]
    if run_child(step, env)[0] != 0:
        return None
    return os.path.join(build_dir, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = args.seed % SEED_MODULUS or SEED_MODULUS

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out_root, "pipebench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(os.path.join(out_root, "pipebench"), env)
    if binary is None:
        log("pipebench: build failed")
        return 1

    scratch_parent = os.path.join(out_root, "pipebench-scratch")
    results = os.path.join(out_root, "pipebench-results")
    os.makedirs(scratch_parent, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{seed}-", dir=scratch_parent)
    stem = os.path.join(results, f"{args.workload}-seed{seed}-trace{args.trace}")
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--out", stem + ".json"]
    if args.trace:
        command += ["--trace-json", stem + "-spans.json"]

    # The filesystem may discard freed blocks at journal commits; settle
    # outstanding work before the run and after removing its scratch root,
    # so no run pays for the previous one's deletions.
    os.sync()
    timeout = max(RUN_TIMEOUT_MIN_S, RUN_TIMEOUT_PER_SECOND * args.seconds)
    try:
        returncode, raw = run_child(command, env, capture=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"pipebench: run exceeded {timeout:g} s; scratch kept in {scratch}")
        return 1

    stdout = raw.decode("utf-8", errors="replace")
    result = None
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        pass
    if returncode != 0 or not isinstance(result, dict):
        # No result: the run stopped before the end of its plan.
        sys.stderr.write(stdout)
        log(f"pipebench: run failed (exit {returncode}); "
            f"scratch kept in {scratch}")
        return 1
    # A run that completed reports its failed gates in the result itself.
    if result.get("correct") is True:
        shutil.rmtree(scratch, ignore_errors=True)
        os.sync()
    else:
        log(f"pipebench: {result.get('failed')} failed operations; "
            f"scratch kept in {scratch}")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


def stop(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # Stopping run.py stops the build or run it waits for (see run_child).
    signal.signal(signal.SIGTERM, stop)
    sys.exit(main())
