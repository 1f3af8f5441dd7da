#!/usr/bin/env python3
"""Build and run the host-cost benchmark.

Run from the root of a checkout:

    python3 hostbench/run.py --workload fig3-sim --seed 1 --seconds 30 --trace 0

It builds the hostbench command and the premad node daemon from source into
.bench_build/ (Go's build and module caches live there too, so nothing is
written outside the checkout), then runs hostbench with the given arguments.
hostbench prints its metrics and, as the last line of standard output, one
JSON result object. Build failures and benchmark errors exit nonzero without
printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; stop it sooner to leave room to reap the children.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build(env):
    bins = {
        "hostbench": os.path.join(BUILD, "hostbench"),
        "premad": os.path.join(BUILD, "premad"),
    }
    for pkg, out in ((".", bins["hostbench"]), ("prema/cmd/premad", bins["premad"])):
        proc = subprocess.run(
            ["go", "build", "-o", out, pkg],
            cwd=HERE,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if proc.returncode != 0:
            print(f"run.py: building {pkg} failed", file=sys.stderr)
            sys.exit(1)
    return bins


def main():
    env = go_env()
    bins = build(env)
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [bins["hostbench"], *sys.argv[1:], "--premad", bins["premad"], "--spans-dir", spans]
    # A session of its own, so a timeout can stop the premad nodes too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
