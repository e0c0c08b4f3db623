"""The repository's benchmark: real ``DistributedTrainer.train()`` runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload a2sgd-fnn3-paper --seed 1 \\
        --seconds 40 --trace 0

Each training runs in a fresh process (``worker.py``) with BLAS pinned to
one thread; trainings repeat until ``--seconds`` is spent and the metrics
combine all of them (see ``end_to_end()``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced trainings and reports the per-layer metrics of the
traced ones, plus the tracing overhead on ``iter_ms_p50``.

The output check fails the run if any iteration's loss is non-finite, if the
final loss is not below the first, if the trainings of one run disagree on
the final parameters, if a traced training's final parameters differ from an
untraced one's, or — at the workload's default seed — if the SHA-256 of the
final parameter matrix differs from the digest recorded in
``workloads.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, DIGEST_BLAS_CORE, LAUNCH_ENV, WORKLOADS  # noqa: E402

#: One training takes 5-11 s; a run must end within 180 s.
WORKER_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "wire_bytes_per_iter": "B",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.trainer_init_s": "s",
    "setup.first_iteration_s": "s",
    "core.forward_backward_ms": "ms",
    "sync.exchange_ms": "ms",
    "compress.compress_ms": "ms",
    "compress.decompress_ms": "ms",
    "compress.calls_per_iter": "count",
    "comm.collective_ms": "ms",
    "comm.collectives_per_iter": "count",
    "comm.bytes_per_iter": "B",
    "optim.step_ms": "ms",
    "data.batch_ms": "ms",
    "core.evaluate_ms": "ms",
    "core.evaluate_calls": "count",
    "core.callbacks_ms": "ms",
    "core.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}


def worker_env() -> dict:
    """The launch environment (see ``LAUNCH_ENV``) and the checkout's ``src``.

    Compiled bytecode is cached, as it is for any user after their first
    run, but under ``.bench_build/`` so nothing is written outside the
    checkout (see warm_up()).
    """
    env = {**os.environ, **LAUNCH_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up(env: dict) -> None:
    """Import everything a training imports, untimed, so that every timed
    process starts with the same bytecode cache."""
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--help"],
                   cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def train_once(workload: str, seed: int, trace: bool, env: dict) -> dict:
    """One training in a fresh process; its JSON report, or a failure."""
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--t0", repr(t0), "--trace", str(int(trace))],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"training timed out after {WORKER_TIMEOUT_S} s"}
    if done.returncode != 0:
        return {"error": done.stderr.strip().splitlines()[-1:] or
                [f"exit code {done.returncode}"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(report: dict, workload, seed: int) -> list:
    """Problems with one training's outputs (empty when correct)."""
    if "error" in report:
        return [f"training failed: {report['error']}"]
    problems = []
    losses = report["losses"]
    if not all(math.isfinite(loss) for loss in losses):
        problems.append("a training loss is not finite")
    elif not losses[-1] < losses[0]:
        problems.append(f"final loss {losses[-1]} is not below the first {losses[0]}")
    if seed == DEFAULT_SEED and digest_checked(report) \
            and report["digest"] != workload.digest:
        problems.append(f"final parameters {report['digest']} differ from the "
                        f"recorded digest {workload.digest}")
    return problems


def digest_checked(report: dict) -> bool:
    return report["environment"]["blas_core"] == DIGEST_BLAS_CORE


def median(reports: list, key: str) -> float:
    return statistics.median(report[key] for report in reports)


#: Consecutive iterations per block in ``iter_ms_p50`` (0.2-0.5 s of work).
P50_BLOCK = 16


def end_to_end(plain: list) -> dict:
    """The end-to-end metrics over a run's untraced trainings.

    On a shared 2-vCPU Xeon host, neighbours on the same cores slow the
    benchmark by up to 1.5x for seconds at a time, so a run's iterations mix
    a fast and a slow speed in a share that differs from run to run.  A
    median snaps to whichever speed held the majority: the median over
    trainings of each training's p50 spread by 0.28 (the quartile distance
    as a share of the median) across ten 40 s runs of a2sgd-lstm-tiny.
    ``iter_ms_p50`` is therefore the median of each block of ``P50_BLOCK``
    consecutive iterations, averaged over the run's blocks: each block sees
    one speed, and the average follows the share smoothly (with a load switching on and off every 1.5 s on the other
    core, the spread across 40 s runs was 0.13 for the median of each
    training and 0.09 for the blocks).  ``samples_per_s`` pools every
    timed sample over every timed window.  ``iter_ms_p90``, ``setup_s``,
    ``peak_rss_mb`` and ``wire_bytes_per_iter`` are medians over the
    trainings; the p90 of each training has at least 10 iterations beyond
    it.
    """
    blocks = [statistics.median(r["iter_ms"][i:i + P50_BLOCK])
              for r in plain
              for i in range(0, len(r["iter_ms"]) - P50_BLOCK + 1, P50_BLOCK)]
    combined = {
        "setup_s": median(plain, "setup_s"),
        "samples_per_s": sum(r["samples_per_s"] * r["window_s"] for r in plain)
        / sum(r["window_s"] for r in plain),
        "iter_ms_p50": statistics.fmean(blocks),
        "iter_ms_p90": median(plain, "iter_ms_p90"),
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "wire_bytes_per_iter": median(plain, "wire_bytes_per_iter"),
    }
    return {name: {"value": combined[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the training loop.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = worker_env()
    warm_up(env)

    # Trace runs alternate untraced and traced trainings, so both sides see
    # the same drift in host speed.
    schedule = (False, True) if args.trace else (False,)
    reports, problems, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    longest = 0.0
    while True:
        for traced in schedule:
            began = time.monotonic()
            report = train_once(workload.name, args.seed, traced, env)
            longest = max(longest, time.monotonic() - began)
            found = check(report, workload, args.seed)
            problems.extend(found)
            if "error" in report:
                # A training that died counts as one failed attempt.
                failed += 1
                attempted += 1
                continue
            attempted += len(report["losses"])
            failed += sum(1 for loss in report["losses"] if not math.isfinite(loss))
            reports.append(report)
        if time.monotonic() - start + len(schedule) * longest > args.seconds:
            break
    if len({report["digest"] for report in reports}) > 1:
        problems.append("trainings of one seed disagree on the final parameters"
                        + (" (traced against untraced)" if args.trace else ""))

    plain = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    if not plain or (args.trace and not traced):
        problems.append("no training completed")
        metrics = {}
    elif args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        for name in ("import_s", "trainer_init_s", "first_iteration_s"):
            layers[f"setup.{name}"] = median(plain, name)
        # Host speed drifts within seconds, so compare each traced training
        # with the untraced one just before it.
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(
            t["iter_ms_p50"] / p["iter_ms_p50"] for p, t in zip(plain, traced)) - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = end_to_end(plain)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trainings": len(reports),
        "timed_iterations_per_training": [r["timed_iterations"] for r in reports],
        "iteration_samples": sum(r["timed_iterations"] for r in plain),
        "digest": reports[0]["digest"] if reports else None,
        "digest_checked": args.seed == DEFAULT_SEED and bool(reports)
        and all(digest_checked(r) for r in reports),
        "per_training": [{key: r[key] for key in (*END_TO_END, "traced")}
                         for r in reports],
        "problems": problems,
        "environment": reports[0]["environment"] if reports else None,
    }
    print(json.dumps(info))
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6f} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
