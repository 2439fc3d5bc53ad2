#!/usr/bin/env python3
"""Build and run the engine benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program is built from source into .bench_build/ inside the checkout,
with the Go build cache, module cache, temporary files and tool
configuration kept there too, so the benchmark writes nothing outside the
checkout. The build
needs the engine's module (go.mod and internal/ at the root); without it the
build fails and the script exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 175  # seconds; one run must end within 180


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def source_digest():
    """A digest of the Go sources, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: run from the root of a checkout of the engine (no go.mod here)")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=go_env())
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    args = [BINARY, "--commit", commit()] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
