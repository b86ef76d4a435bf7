"""Compare two records of one benchmark in ``bench_results/history.jsonl``.

Usage::

    python benchmarks/compare.py BENCH [A B] [--history PATH]

``BENCH`` is the record's ``benchmark`` name (``decomp``, ``dual``, ...).
``A`` and ``B`` pick two of that benchmark's records, oldest first: an
integer is a position (negative counts from the newest) and anything
else is a ``git_sha`` prefix (its newest record).  The default is the
last two records.  Every numeric leaf of the two records prints as
``before``, ``after`` and ``after / before``.  List items are named by
their ``label`` field when they have one, else by position.  The tool
only reports; it never fails on a slower number.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import pathlib
import sys

HISTORY = pathlib.Path(__file__).resolve().parent.parent / "bench_results" / "history.jsonl"


def numeric_leaves(value, prefix: str = "") -> dict[str, float]:
    """Flatten ``value`` to ``{dotted.path: number}`` (booleans excluded)."""
    if isinstance(value, bool):
        return {}
    if isinstance(value, (int, float)):
        return {prefix: float(value)}
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = (
            (item.get("label", i) if isinstance(item, dict) else i, item)
            for i, item in enumerate(value)
        )
    else:
        return {}
    leaves: dict[str, float] = {}
    for key, item in items:
        if isinstance(value, list):
            path = f"{prefix}[{key}]"
        else:
            path = f"{prefix}.{key}" if prefix else str(key)
        leaves.update(numeric_leaves(item, path))
    return leaves


def select(records: list[dict], ref: str) -> dict:
    """The record at position ``ref``, or the newest with that SHA prefix."""
    try:
        return records[int(ref)]
    except ValueError:
        pass
    for record in reversed(records):
        if str(record.get("git_sha", "")).startswith(ref):
            return record
    raise LookupError(f"no record with git_sha starting {ref!r}")


def _describe(record: dict) -> str:
    sha = str(record.get("git_sha", "unknown"))[:10]
    stamp = record.get("generated_at")
    if isinstance(stamp, (int, float)):
        when = datetime.datetime.fromtimestamp(stamp, datetime.timezone.utc)
        return f"{sha} ({when:%Y-%m-%d %H:%M} UTC)"
    return sha


def _fmt(number: float) -> str:
    return f"{number:.6g}"


def compare(before: dict, after: dict) -> list[str]:
    """Table lines: every numeric leaf of either record."""
    old, new = numeric_leaves(before), numeric_leaves(after)
    keys = sorted(set(old) | set(new))
    width = max((len(key) for key in keys), default=6)
    lines = [f"{'metric':<{width}}  {'before':>12}  {'after':>12}  {'ratio':>8}"]
    for key in keys:
        a, b = old.get(key), new.get(key)
        if a is not None and b is not None and a != 0 and math.isfinite(a):
            ratio = _fmt(b / a)
        else:
            ratio = "-"
        lines.append(
            f"{key:<{width}}  {'-' if a is None else _fmt(a):>12}  "
            f"{'-' if b is None else _fmt(b):>12}  {ratio:>8}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("benchmark", help="benchmark name, e.g. decomp")
    parser.add_argument("refs", nargs="*", help="two records: positions or SHA prefixes")
    parser.add_argument("--history", type=pathlib.Path, default=HISTORY)
    args = parser.parse_args(argv)
    if len(args.refs) not in (0, 2):
        parser.error("give no record or exactly two (A B)")

    with args.history.open(encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    records = [r for r in records if r.get("benchmark") == args.benchmark]
    if len(records) < 2:
        print(
            f"{args.benchmark}: {len(records)} record(s) in {args.history}; "
            "need two to compare",
            file=sys.stderr,
        )
        return 1
    try:
        before, after = (select(records, ref) for ref in (args.refs or ["-2", "-1"]))
    except (IndexError, LookupError) as exc:
        print(f"{args.benchmark}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.benchmark}: {_describe(before)} -> {_describe(after)}")
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
