#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingress_steady --seed 1 \
        --seconds 25 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
under src/ plus the dagbench program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only rebuild
what changed. Build output goes to standard error, so the last line of
standard output is dagbench's JSON result. The exit code is dagbench's:
0 only when every correctness check passed.
"""
import argparse
import os
import resource
import subprocess
import sys
import time

WORKLOADS = ("ingress_steady", "inproc_saturate", "durable_rejoin")
RUN_TIMEOUT_S = 170
# node::Cluster picks its TCP node-link and ingress ports by binding port 0
# and closing the socket (net::pick_free_ports); another socket can take such
# a port before the node binds it, and the node then aborts the process. The
# race is in how the cluster fixture picks ports, not in the protocol under
# test, so a run that dies of it is repeated once, and says so on standard
# error.
BIND_RACES = ("TcpTransport: bind failed", "ingress listener failed to bind")


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Build and run one workload of the DAG-Rider benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (default 1)")
    p.add_argument("--seconds", type=int, default=25,
                   help="measured seconds, split into episodes (default 25)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = traced run printing per-layer metrics")
    p.add_argument("--fsync", type=int, choices=(0, 1), default=0,
                   help="1 = durable_rejoin fsyncs every WAL append")
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds within 1..120")
    return args


def build(root, build_dir):
    """Configures (once) and builds dagbench; returns its path or None."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under src/ in " + root,
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "dagbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    exe = os.path.join(build_dir, "dagbench")
    return exe if os.path.isfile(exe) else None


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    exe = build(root, build_dir)
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.join(build_dir, "data")]
    if args.fsync:
        cmd += ["--fsync", "1"]
    env = dict(os.environ, DAGBENCH_COMMIT=commit_of(root))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for attempt in (1, 2):
        try:
            r = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                               text=True, preexec_fn=no_core_dumps,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
        sys.stderr.write(r.stderr)
        raced = any(m in r.stderr for m in BIND_RACES)
        if r.returncode == 0 or not raced or attempt == 2:
            break
        print("perfbench: a TCP node lost its pre-picked port to another "
              "socket; running again", file=sys.stderr)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


def no_core_dumps():
    """An aborted dagbench must not leave a core file in the checkout."""
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
