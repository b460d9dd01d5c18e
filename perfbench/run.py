#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lan-saturate --seed 1 --seconds 10 --trace 0

The Go program in this directory is built against the checkout's own
sources (its go.mod replaces the `stabilizer` module with the parent
directory). Every file the build and the run write stays under the
checkout: the build cache, the module cache and the binary live in
$CARGO_TARGET_DIR when it is set, else in .bench_build. The arguments
are passed to the benchmark unchanged, plus the source revision for its
provenance line. The benchmark's exit code is returned; a failed build
exits 2 without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; the program enforces its own deadline
# below this, so the wrapper's limit only catches a hung process.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 900


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        # Keep the toolchain from reading or writing per-user state
        # outside the checkout, and from downloading anything.
        "GOENV": "off",
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    return env


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the Go sources, so a result always names the code it measured."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    skip = {".git", os.path.basename(build_dir())}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    env = go_env(out)
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                               text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stderr, file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--commit", revision()], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
