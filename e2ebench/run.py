#!/usr/bin/env python3
"""End-to-end benchmark of the mineq library: build, run one workload, report.

    python3 e2ebench/run.py --workload <classify|sweep|megafabric|resilience>
                            --seed <n> --seconds <s> --trace <0|1>
                            [--verify] [--perturb] [--small]

Run it from anywhere inside a checkout; it builds e2ebench/CMakeLists.txt
(the library sources under src/ plus the benchmark program) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that variable is
unset, then runs the program from the checkout root. The last line of
standard output is the result JSON; the line before it is the run manifest.
A traced run (--trace 1) also writes its spans under .bench_out/.

--verify additionally compares simulated results with sim_threads=1 and a
1-thread sweep; --perturb corrupts one simulated result so the output checks
must fail; --small shrinks every workload to test size. See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("classify", "sweep", "megafabric", "resilience")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not any((ROOT / "src").glob("*/*.cpp")):
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "e2ebench"


def source_digest():
    """SHA-256 over the library and benchmark sources, path and content."""
    digest = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_info():
    """(sha, dirty) of the checkout, or 'unknown' outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)", "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], check=True,
                                capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha, "1" if status.strip() else "0"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    sha, dirty = git_info()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--git-sha", sha, "--git-dirty", dirty,
               "--source-digest", source_digest()]
    command += [flag for flag, on in (("--verify", args.verify),
                                      ("--perturb", args.perturb),
                                      ("--small", args.small)) if on]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
