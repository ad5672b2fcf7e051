#!/usr/bin/env python3
"""Check ``BENCH_*.json`` payloads against the gates each one declares.

Every benchmark under ``benchmarks/`` writes its payload with a
``gates`` list. A gate names one recorded value and one comparison:

* ``{"value": "overhead", "max": 0.05}`` — at most the bound;
* ``{"value": "rows.-1.speedup", "min": 10.0}`` — at least the bound;
* ``{"value": "outcomes_match", "equals": true}`` — equal to the bound
  and of the same JSON type (``1`` is not ``true``);
* ``{"value": "datasets.*.rule_counts.*", "min_baseline_fraction": 0.8,
  "min_baseline": 10}`` — at least this fraction of the same value in
  the baseline payload, for every baseline value of at least
  ``min_baseline``. A leaf missing from the checked payload counts as 0:
  the funnel writer omits the rules that pruned nothing.

``value`` is a dotted path: an object key, a list index (the writers
keep their top scale as row ``-1``), or ``*`` for every key or element.
Writers compute and store every derived value (seconds per answer, the
attach-RSS budget), so this script holds no per-payload code. A payload
without gates, a gate whose path matches nothing, and a gated value that
is missing or not a number all fail; nothing falls back to a default.

Usage::

    python scripts/check_bench_regression.py \\
        [--baseline BENCH_pruning_funnel.committed.json] \\
        benchmarks/results/BENCH_*.json

``--baseline`` serves the payloads whose ``schema`` it shares; any other
payload is its own baseline, which only checks that the paths resolve.
Exit status 1 lists every violated gate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

COMPARISONS = ("min", "max", "equals", "min_baseline_fraction")

_MISSING = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve(
    node, segments: Sequence[str], where: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], object]]:
    """Yield ``(concrete path, value)`` for every match of ``segments``.

    A segment that does not resolve yields the path up to and including
    it, with the value ``_MISSING``.
    """
    if not segments:
        yield where, node
        return
    head, rest = segments[0], segments[1:]
    if head == "*" and isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _resolve(node[key], rest, where + (str(key),))
        return
    child = _MISSING
    if isinstance(node, dict):
        child = node.get(head, _MISSING)
    elif isinstance(node, list):
        try:
            child = node[int(head)]
        except (ValueError, IndexError):
            pass
    if child is _MISSING:
        yield where + (head,), _MISSING
    else:
        yield from _resolve(child, rest, where + (head,))


def _check_gate(payload: dict, gate, baseline: dict) -> List[str]:
    if not isinstance(gate, dict):
        return [f"malformed gate {gate!r}"]
    kinds = [k for k in COMPARISONS if k in gate]
    if len(kinds) != 1 or not isinstance(gate.get("value"), str):
        return [f"malformed gate {gate!r}"]
    kind = kinds[0]
    bound = gate[kind]
    floor = gate.get("min_baseline", 0)
    if kind != "equals" and not (_is_number(bound) and _is_number(floor)):
        return [f"malformed gate {gate!r}"]
    path = gate["value"]
    source = baseline if kind == "min_baseline_fraction" else payload
    matches = list(_resolve(source, path.split(".")))
    if not matches:
        return [f"{path}: matches nothing"]

    failures: List[str] = []
    for where, value in matches:
        name = ".".join(where)
        if kind == "min_baseline_fraction":
            if not _is_number(value):
                failures.append(f"{name}: not a number in the baseline")
                continue
            if value < floor:
                continue
            base = value
            got, value = next(_resolve(payload, where))
            if value is _MISSING and len(got) == len(where):
                value = 0
        if value is _MISSING:
            failures.append(f"{name}: not recorded")
        elif kind == "equals":
            if type(value) is not type(bound) or value != bound:
                failures.append(f"{name} = {value!r}, expected {bound!r}")
        elif not _is_number(value) or math.isnan(value):
            failures.append(f"{name} = {value!r} is not a number")
        elif kind == "min" and not value >= bound:
            failures.append(f"{name} = {value!r} is below the floor {bound!r}")
        elif kind == "max" and not value <= bound:
            failures.append(f"{name} = {value!r} is above the ceiling {bound!r}")
        elif kind == "min_baseline_fraction" and not value >= bound * base:
            failures.append(
                f"{name} = {value!r} is below {bound:g} x the baseline's {base!r}"
            )
    return failures


def check(payload, baseline: Optional[dict] = None) -> List[str]:
    """Return one message per violated gate (empty list = all hold).

    Baseline-relative gates read ``baseline``, or ``payload`` itself
    when no baseline is given.
    """
    gates = payload.get("gates") if isinstance(payload, dict) else None
    if not isinstance(gates, list) or not gates:
        return ["no gates declared"]
    reference = payload if baseline is None else baseline
    failures: List[str] = []
    for gate in gates:
        failures.extend(_check_gate(payload, gate, reference))
    return failures


def _load(path: str):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _schema(payload) -> Optional[str]:
    return payload.get("schema") if isinstance(payload, dict) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a BENCH payload violates one of its gates."
    )
    parser.add_argument("payloads", nargs="+", metavar="PAYLOAD")
    parser.add_argument(
        "--baseline",
        help="committed payload that baseline-relative gates of payloads "
        "with the same schema compare against",
    )
    args = parser.parse_args(argv)
    baseline = None
    if args.baseline:
        try:
            baseline = _load(args.baseline)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --baseline: {exc}")

    failures: List[str] = []
    for path in args.payloads:
        try:
            payload = _load(path)
        except (OSError, ValueError) as exc:
            failures.append(f"{path}: unreadable ({exc})")
            continue
        same = baseline is not None and _schema(baseline) == _schema(payload)
        found = check(payload, baseline if same else None)
        failures.extend(f"{path}: {message}" for message in found)
        if not found:
            print(f"{path}: all {len(payload['gates'])} gate(s) hold")

    for message in failures:
        print(f"REGRESSION {message}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} benchmark regression(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
