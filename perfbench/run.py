#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload plan-solve --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the run's JSON result; progress, the metric
table and the run metadata go to standard error. A failed build or run
exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
# What the commit id hashes when the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SKIP = {os.path.join("perfbench", "out"), "target", ".bench_build"}


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "waso-perfbench")


def git(*args):
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else []
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if os.path.join(root, d) not in SKIP)
            paths.extend(os.path.join(root, f) for f in sorted(files))
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def commit_id():
    """The git commit of a clean tree; with uncommitted changes, the commit
    and a digest of the sources; outside git, the digest alone."""
    head = git("rev-parse", "HEAD") if os.path.isdir(".git") else None
    if head is None:
        return source_digest()
    if git("status", "--porcelain", "--untracked-files=no", "--", *SOURCES):
        return f"{head}+{source_digest()}"
    return head


def main():
    binary = build()
    cmd = [binary, *sys.argv[1:], "--commit", commit_id()]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sys.exit(f"run.py: the run did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
