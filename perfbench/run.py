#!/usr/bin/env python3
"""Build and run the m4ps benchmark with a pinned environment.

    python3 perfbench/run.py --workload paper_encode --seed 3 --seconds 20 --trace 0

Run it from the root of the repository. It builds the benchmark package
in this directory (release, offline; into CARGO_TARGET_DIR when set),
clears the M4PS_* variables that change the measured program, and runs
the binary with the given arguments plus a revision stamp. The binary's
output, whose last line is the JSON result, is passed through, and so
is its exit code.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Read by the studies, pools and decoders; the binary refuses to run
# while any is set.
PINNED_ENV = (
    "M4PS_THREADS",
    "M4PS_DECODE_THREADS",
    "M4PS_SCHED",
    "M4PS_KERNELS",
    "M4PS_TRACE",
    "M4PS_OBS_DUMP",
)


def revision():
    """The git commit when there is one, else a digest of the sources
    (an exported tree, such as `git archive` output, has no `.git`)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return "git-" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(env):
    """Builds the benchmark; returns the executable's path or None."""
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exe = msg["executable"]
    return exe


def main():
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cleared = [k for k in PINNED_ENV if k in os.environ]
    if cleared:
        print("# cleared " + " ".join(cleared), flush=True)
    exe = build(env)
    if exe is None:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--revision", revision()]
    proc = subprocess.run([exe] + args, cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
