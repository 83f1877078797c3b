#!/usr/bin/env python3
"""Diff two google-benchmark JSON outputs and fail on regressions.

Compares benchmarks that appear in both inputs by name (per-iteration
real_time, normalized to nanoseconds) and exits non-zero if any common
benchmark slowed down by more than the threshold (default 10%).

Usage:
  scripts/bench_compare.py OLD.json NEW.json [--threshold 0.10]
  scripts/bench_compare.py OLD_DIR NEW_DIR  [--threshold 0.10]
                           [--filter REGEX]

--filter keeps only the benchmarks whose name matches REGEX (re.search),
so one baseline snapshot can own some benchmark families and another
the rest.

Directory mode pairs files by name (BENCH_*.json); files present on only
one side are reported and skipped. Intended for trajectory tracking: the
committed bench/baselines/* snapshots are the fixed points, CI runs the
comparison informationally (benchmark machines are noisy — treat a CI
failure as a prompt to measure properly, not as proof of a regression).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path: Path) -> dict[str, float]:
    """Map benchmark name -> real_time in ns for one JSON file.

    Prefers the median aggregate when the run used
    --benchmark_repetitions (medians resist the scheduling noise that
    makes single samples flip across a 10% threshold); falls back to the
    plain per-benchmark sample otherwise.
    """
    with path.open() as handle:
        data = json.load(handle)
    samples: dict[str, float] = {}
    medians: dict[str, float] = {}
    for entry in data.get("benchmarks", []):
        unit = _UNIT_NS.get(entry.get("time_unit", "ns"))
        if unit is None or "real_time" not in entry:
            continue
        value = float(entry["real_time"]) * unit
        if entry.get("run_type", "iteration") == "aggregate":
            if entry.get("aggregate_name") == "median":
                name = entry["name"]
                suffix = "_median"
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
                medians[name] = value
        else:
            samples[entry["name"]] = value
    samples.update(medians)
    return samples


def fmt_ns(ns: float) -> str:
    for bound, unit in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if ns >= bound:
            return f"{ns / bound:.3g} {unit}"
    return f"{ns:.3g} ns"


def compare_files(old_path: Path, new_path: Path, threshold: float,
                  name_filter: re.Pattern[str] | None) -> tuple[int, int]:
    """Print the per-benchmark table; return (compared, regressed)."""
    old = load_benchmarks(old_path)
    new = load_benchmarks(new_path)
    if name_filter is not None:
        old = {k: v for k, v in old.items() if name_filter.search(k)}
        new = {k: v for k, v in new.items() if name_filter.search(k)}
    common = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))

    print(f"== {old_path.name} -> {new_path.name} "
          f"({len(common)} common benchmarks)")
    regressed = 0
    width = max((len(name) for name in common), default=0)
    for name in common:
        ratio = new[name] / old[name] if old[name] > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSED"
            regressed += 1
        elif ratio < 1.0 - threshold:
            verdict = "improved"
        print(f"  {name:<{width}}  {fmt_ns(old[name]):>10} -> "
              f"{fmt_ns(new[name]):>10}  {ratio:6.2f}x  {verdict}")
    for name in only_old:
        print(f"  {name}: only in {old_path.name} (skipped)")
    for name in only_new:
        print(f"  {name}: only in {new_path.name} (skipped)")
    return len(common), regressed


def pair_inputs(old: Path, new: Path) -> list[tuple[Path, Path]]:
    if old.is_file() and new.is_file():
        return [(old, new)]
    if old.is_dir() and new.is_dir():
        pairs = []
        for old_file in sorted(old.glob("BENCH_*.json")):
            new_file = new / old_file.name
            if new_file.is_file():
                pairs.append((old_file, new_file))
            else:
                print(f"  {old_file.name}: missing from {new} (skipped)")
        return pairs
    sys.exit("bench_compare: OLD and NEW must both be files or both be "
             "directories")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff google-benchmark JSON results.")
    parser.add_argument("old", type=Path, help="baseline JSON file or dir")
    parser.add_argument("new", type=Path, help="candidate JSON file or dir")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed slowdown fraction (default 0.10)")
    parser.add_argument("--filter", type=re.compile, default=None,
                        help="compare only benchmarks whose name matches "
                             "this regex")
    args = parser.parse_args()

    pairs = pair_inputs(args.old, args.new)
    if not pairs:
        sys.exit("bench_compare: nothing to compare")
    total = regressed = 0
    for old_file, new_file in pairs:
        compared, bad = compare_files(old_file, new_file, args.threshold,
                                      args.filter)
        total += compared
        regressed += bad
    print(f"== {total} benchmarks compared, {regressed} regressed more than "
          f"{args.threshold:.0%}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
