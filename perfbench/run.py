#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds mwreg and the harness with dune, runs the harness, and checks
that its last line is a result whose metric names and units are the
ones BENCHMARK.json lists for the trace mode.  The result line is
printed last; the exit code is 0 only for a complete, correct result.
The harness runs in its own process group, which is killed and waited
for on every exit path, so no server process outlives the run.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 800
RUN_LIMIT_S = 170
TARGETS = ["bin/mwreg.exe", "perfbench/main.exe"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune project with lib/ here; run from the root of the source tree")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", *TARGETS],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(pgid):
    """Kill whatever is left of the harness's process group and wait
    (bounded) until the kernel reports it gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 5
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def host_line(args):
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return json.dumps({"host": {"nproc": nproc, "cpu_count": os.cpu_count(),
                                "commit": commit, "seed": args.seed,
                                "workload": args.workload}})


def check_result(line, spec, trace):
    """The reason [line] is not a valid result for this trace mode, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not exactly correct/attempted/failed/metrics"
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        return "attempted/failed are not counts"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want[name]:
            return f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}"
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"{name}: value {v!r} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    build(env)

    started = time.monotonic()
    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mwreg", os.path.join("_build", "default", "bin", "mwreg.exe"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"harness still running after {RUN_LIMIT_S}s", code=1)
    finally:
        stop_group(proc.pid)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"harness printed nothing (exit code {proc.returncode})", code=1)
    problem = check_result(lines[-1], spec, args.trace == 1)
    print(host_line(args))
    for l in lines[:-1]:
        print(l)
    if problem is not None:
        fail(f"{problem} (exit code {proc.returncode})", code=1)
    print(f"elapsed {time.monotonic() - started:.1f}s", file=sys.stderr)
    print(lines[-1])
    sys.exit(0 if proc.returncode == 0 and json.loads(lines[-1])["correct"] else 1)


if __name__ == "__main__":
    main()
