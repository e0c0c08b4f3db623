"""Train one benchmark workload once, in this fresh process, and report.

Run by ``run.py`` (never imported by it).  ``--t0`` is the parent's
``time.monotonic()`` just before this process was launched; Linux's
monotonic clock is system-wide, so ``setup_s`` covers interpreter start-up,
``import repro``, trainer construction and the first (tape-recording)
iteration — what a user pays on every ``repro run``.

Prints one JSON object on its last stdout line.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.callbacks import Callback  # noqa: E402
from repro.core.spec import ExperimentSpec  # noqa: E402
from repro.core.trainer import DistributedTrainer  # noqa: E402

_IMPORTED = time.monotonic()

from tracing import Tracer  # noqa: E402
from workloads import LAUNCH_ENV, WORKLOADS  # noqa: E402


class IterationTimer(Callback):
    """Stamps every iteration and snapshots the comm/trace counters.

    Iteration 1 records the tape, so the timed window runs from the end of
    iteration 1 to the end of the last iteration.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts, self.ends, self.losses = [], [], []
        self.first = None      # counters at the end of iteration 1
        self.last = None       # counters at the end of the last iteration

    def _counters(self, state):
        counters = {"bytes_sent": state.trainer.world.stats.bytes_sent_per_rank,
                    "monotonic": time.monotonic()}
        if self.tracer is not None:
            counters["trace"] = self.tracer.snapshot()
        return counters

    def on_iteration_start(self, state):
        self.starts.append(time.perf_counter())

    def on_iteration_end(self, state):
        self.ends.append(time.perf_counter())
        self.losses.append(float(state.loss))
        self.last = self._counters(state)
        if self.first is None:
            self.first = self.last


def environment() -> dict:
    """Host and numerical-library facts that every result is recorded with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **_openblas_runtime(),
        "launch_env": {key: os.environ.get(key) for key in LAUNCH_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_runtime() -> dict:
    """The thread count and kernel set OpenBLAS uses at run time."""
    found = {"blas_threads": None, "blas_core": None}
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for key, suffix, restype in (("blas_threads", "get_num_threads", ctypes.c_int),
                                     ("blas_core", "get_corename", ctypes.c_char_p)):
            for symbol in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                           f"openblas_{suffix}"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, []
                    value = fn()
                    found[key] = value.decode() if isinstance(value, bytes) else value
                    break
    return found


def _per_iteration(first: dict, last: dict, iterations: int, wall_ms: float,
                   bytes_sent: float) -> dict:
    """Per-layer numbers over the timed window, per timed iteration."""
    def delta(kind, name):
        return last[kind].get(name, 0) - first[kind].get(name, 0)

    def per_iter_ms(kind, name):
        return 1e3 * delta(kind, name) / iterations

    covered_ms = 1e3 * (last["top_level_s"] - first["top_level_s"]) / iterations
    return {
        "core.forward_backward_ms": per_iter_ms("total", "core.forward_backward"),
        "sync.exchange_ms": per_iter_ms("total", "sync.exchange"),
        "compress.compress_ms": per_iter_ms("total", "compress.compress"),
        "compress.decompress_ms": per_iter_ms("total", "compress.decompress"),
        "compress.calls_per_iter": (delta("calls", "compress.compress")
                                    + delta("calls", "compress.decompress")) / iterations,
        "comm.collective_ms": per_iter_ms("total", "comm.collective"),
        "comm.collectives_per_iter": delta("calls", "comm.collective") / iterations,
        "comm.bytes_per_iter": bytes_sent / iterations,
        "optim.step_ms": per_iter_ms("total", "optim.step"),
        "data.batch_ms": per_iter_ms("total", "data.batch"),
        "core.evaluate_ms": per_iter_ms("total", "core.evaluate"),
        "core.evaluate_calls": delta("calls", "core.evaluate"),
        "core.callbacks_ms": per_iter_ms("self", "core.callbacks"),
        "core.unattributed_ms": wall_ms / iterations - covered_ms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=_STARTED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    spec = ExperimentSpec(**workload.spec_fields(args.seed)).validate()
    tracer = Tracer() if args.trace else None
    timer = IterationTimer(tracer)
    trainer = DistributedTrainer(spec.to_trainer_config(), callbacks=[timer])
    built = time.monotonic()
    if tracer is not None:
        tracer.attach(trainer)
    try:
        train_start = time.monotonic()
        trainer.train()
    finally:
        trainer.close()

    first, last = timer.first, timer.last
    timed = len(timer.ends) - 1
    window_s = timer.ends[-1] - timer.ends[0]
    # The final dense consolidation runs after the last iteration, outside
    # this window; it would otherwise swamp A2SGD's few bytes per iteration.
    bytes_sent = last["bytes_sent"] - first["bytes_sent"]
    iter_ms = 1e3 * (np.asarray(timer.ends) - np.asarray(timer.starts))[1:]
    shards = trainer.lm_shards if trainer.spec.task == "language_model" else trainer.loaders
    batch = shards[0].batch_size
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": first["monotonic"] - args.t0,
        "import_s": _IMPORTED - args.t0,
        "trainer_init_s": built - _IMPORTED,
        "first_iteration_s": first["monotonic"] - train_start,
        "samples_per_s": spec.world_size * batch * timed / window_s,
        "iter_ms_p50": float(np.percentile(iter_ms, 50)),
        "iter_ms_p90": float(np.percentile(iter_ms, 90)),
        "iter_ms": iter_ms.tolist(),
        "window_s": window_s,
        "timed_iterations": timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wire_bytes_per_iter": bytes_sent / timed,
        "losses": timer.losses,
        "digest": hashlib.sha256(
            np.ascontiguousarray(trainer.flat_world.param_matrix).tobytes()).hexdigest(),
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = _per_iteration(first["trace"], last["trace"], timed,
                                          1e3 * window_s, bytes_sent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
