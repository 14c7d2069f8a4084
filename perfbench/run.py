#!/usr/bin/env python3
"""Build and run the layer-ledger benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (its own Cargo package in this directory) and the
`ipt-cli` binary from the library sources beside it, then runs one
workload. The benchmark's last stdout line is its JSON result. Build
output goes to CARGO_TARGET_DIR (default `.bench_build` in the checkout);
files and traces go to `.perfbench_work` in the checkout.

Exits 2 without a result when the library sources are missing.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision when the checkout is a repository, else a hash
    of the library sources (so every result names the code it measured)."""
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [p for p in (ROOT / "crates").rglob("*") if p.is_file()]
    for p in sorted(files) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def cargo_build(env, *args):
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    )
    if r.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed ({r.returncode})")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no library sources under {ROOT} (need Cargo.toml and crates/)")
    env = dict(os.environ)
    env["CARGO_NET_OFFLINE"] = "true"
    # The benchmark measures the static kernel dispatch: no calibration
    # profile, whatever the caller's environment holds.
    env["IPT_CALIBRATION"] = "off"
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cargo_build(env, "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"))
    cargo_build(env, "-p", "ipt-cli")
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("*.bin"):
        stale.unlink()
    cmd = [
        str(target / "release" / "perfbench"), *sys.argv[1:],
        "--cli", str(target / "release" / "ipt-cli"),
        "--work-dir", str(WORK),
        "--rev", source_rev(),
    ]
    sys.stdout.flush()
    r = subprocess.run(cmd, cwd=ROOT, env=env, check=False)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
