"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-serve --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the workload twice on the same inputs, for half the seconds each:
untraced, then with wrappers around every layer entry point, and prints
the per-layer metrics (``trace.overhead`` compares the two passes). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, sizes, samples, digest) and the spans of a traced pass are
written under ``perfbench/out/``. The exit code is non-zero when any
output check fails. The process pins itself to one CPU first, and every
time is reported at a reference machine speed (see ``perfbench/speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def git_commit(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            # Stop at the checkout: an export nested in another repository
            # must not report that repository's commit.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        config=None, out_dir: Path = OUT_DIR) -> dict:
    """Run ``workload`` and return its result record (see module doc)."""
    from perfbench import checks, metrics, workloads
    from perfbench.tracing import SpanRecorder

    fn, default_config = workloads.WORKLOADS[workload]
    config = config if config is not None else default_config()
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"

    if trace:
        plain = fn(seed, seconds / 2, out_dir, None, config)
        recorder = SpanRecorder()
        traced = fn(seed, seconds / 2, out_dir, recorder, config)
        recorder.write_jsonl(out_dir / f"{stem}.spans.jsonl")
        passes = [plain, traced]
        untraced_p50 = metrics.percentile_ms(plain.scaled_latencies_s, 50)
        values, self_ms = metrics.per_layer(
            traced, recorder.spans, untraced_p50
        )
        units = metrics.PER_LAYER
    else:
        plain = fn(seed, seconds, out_dir, None, config)
        passes = [plain]
        values, self_ms = metrics.end_to_end(plain), {}
        units = metrics.END_TO_END

    reference, problems = checks.reference_violations(
        seed, workloads.ENGINE, workloads.BUILD_ARGS
    )
    digests = [checks.digest(p.digest_lines) for p in passes]
    problems += [v for p in passes for v in p.violations]
    if len(set(digests)) != 1:
        problems.append(f"digest differs between passes: {digests}")
    correct = not problems and all(p.checked for p in passes)
    last = passes[-1]
    return {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
        "record": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "engine": workloads.ENGINE,
            "sizes": last.sizes,
            "environment": environment(),
            "digest": digests[0],
            "requests": [len(p.latencies_s) for p in passes],
            "setup_s": [p.setup_s for p in passes],
            "setup_raw_s": [p.setup_raw_s for p in passes],
            "request_raw_p50_ms": [
                metrics.percentile_ms(p.latencies_s, 50) for p in passes
            ],
            "probe_median_ms": [
                1000.0 * statistics.median(p.probes) for p in passes
            ],
            "answers_checked": [p.checked for p in passes],
            "reference": reference,
            "violations": problems[:20],
            "self_ms_per_request": self_ms,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-serve", "road-grid", "dynamic-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    from perfbench import speed

    speed.pin_to_one_cpu()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(dict(record, **result), indent=2) + "\n"
    )
    print(f"{args.workload} seed={args.seed} digest={record['digest'][:16]} "
          f"requests={record['requests']} "
          f"checked={record['answers_checked']} "
          f"reference={record['reference']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    for layer, ms in record["self_ms_per_request"].items():
        print(f"  self time per request: {layer:10s} {ms:10.3f} ms")
    for problem in record["violations"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
