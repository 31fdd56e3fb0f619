#!/usr/bin/env python3
"""Build and run the checkpoint benchmark from the repository root.

    python3 perfbench/run.py --workload dense-save --seed 1 --seconds 25 --trace 0

Builds perfbench/ (its own Go module, which replaces the eccheck module
with the checkout it sits in) and cmd/eccheckd into .bench_build/bin, with
the Go build cache and config kept under .bench_build, and rebuilds only
when a Go source file of the checkout changed. Then runs one workload; the
last line of standard output is the JSON result. Exits non-zero when the
build or the run fails or the run's outputs do not verify.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("dense-save", "recover", "moe-sparse", "daemon")
RUN_TIMEOUT_S = 170


def fingerprint(root):
    """Hash of every Go source and module file in the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                st = os.stat(path)
                h.update(f"{os.path.relpath(path, root)}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def build(root, build_dir, env):
    bench_dir = os.path.join(root, "perfbench")
    bin_dir = os.path.join(build_dir, "bin")
    stamp = os.path.join(build_dir, "stamp")
    want = fingerprint(root)
    bins = [os.path.join(bin_dir, b) for b in ("perfbench", "eccheckd")]
    if all(os.path.exists(b) for b in bins) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == want:
                return
    os.makedirs(bin_dir, exist_ok=True)
    for target, out in ((".", bins[0]), ("eccheck/cmd/eccheckd", bins[1])):
        proc = subprocess.run(["go", "build", "-o", out, target], cwd=bench_dir, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: building {target} failed")
    with open(stamp, "w") as f:
        f.write(want)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", os.path.join("perfbench", "go.mod"), os.path.join("cmd", "eccheckd")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"perfbench: {need} not found; run from the repository root")
    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "TMPDIR": os.path.join(build_dir, "tmp"),
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(root, build_dir, env)

    started = time.monotonic()
    cmd = [os.path.join(build_dir, "bin", "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build_dir, "perfbench"),
           "-eccheckd", os.path.join(build_dir, "bin", "eccheckd")]
    # Its own process group, so a timeout also stops any eccheckd it booted.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s after {time.monotonic() - started:.0f}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
