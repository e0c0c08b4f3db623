"""Per-layer spans recorded from outside the program.

The tracer wraps the public call into each layer of a constructed
``DistributedTrainer`` — nothing under ``src/`` knows it is there.  Spans
nest: a span's *self* time is its duration minus the time of the spans
opened inside it, and time spent in top-level spans is summed so the
benchmark can report the part of an iteration no span covers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List

#: Collectives of ``InProcessWorld`` that move data.
COLLECTIVES = ("allreduce", "allgather", "broadcast", "reduce_scatter",
               "neighbor_exchange", "point_to_point")


class Tracer:
    def __init__(self):
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._open: List[float] = []   # child time accumulated per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._open.pop()
                self.total[name] += duration
                self.self_time[name] += duration - children
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_level_s += duration
        return timed

    def snapshot(self) -> dict:
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": dict(self.calls), "top_level_s": self.top_level_s}

    # ------------------------------------------------------------------ #
    def attach(self, trainer) -> None:
        """Wrap each layer boundary of ``trainer`` (call before ``train()``).

        Some wraps are process-wide — the compressor class, ``DataLoader``
        and the trainer module's SGD kernel — so attach once per process;
        the benchmark trains each run in a process of its own.
        """
        import repro.core.trainer as trainer_module
        from repro.data.dataloader import DataLoader

        trainer.executor.forward_backward = self.wrap(
            "core.forward_backward", trainer.executor.forward_backward)
        strategy = trainer.sync_strategy
        strategy.exchange_batched = self.wrap("sync.exchange", strategy.exchange_batched)
        compressor_cls = type(trainer.compressors[0])
        for method, name in (("compress_batch", "compress.compress"),
                             ("decompress_batch", "compress.decompress")):
            setattr(compressor_cls, method,
                    staticmethod(self.wrap(name, getattr(compressor_cls, method))))
        for method in COLLECTIVES:
            setattr(trainer.world, method,
                    self.wrap("comm.collective", getattr(trainer.world, method)))
        trainer_module.sgd_flat_update = self.wrap(
            "optim.step", trainer_module.sgd_flat_update)
        trainer.evaluate = self.wrap("core.evaluate", trainer.evaluate)
        for hook in ("on_train_start", "on_epoch_start", "on_iteration_start",
                     "on_iteration_end", "on_epoch_end", "on_train_end"):
            setattr(trainer.callbacks, hook,
                    self.wrap("core.callbacks", getattr(trainer.callbacks, hook)))

        # Training batches: the classification loop iterates its DataLoaders,
        # the language-model loop its LanguageModelBatcher shards.
        wrap_next = self.wrap("data.batch", next)

        def timed_iterator(iterator):
            while True:
                try:
                    yield wrap_next(iterator)
                except StopIteration:
                    return

        for shard in getattr(trainer, "lm_shards", []):
            batches = shard.batches
            shard.batches = lambda batches=batches: timed_iterator(batches())
        loaders = {id(loader) for loader in getattr(trainer, "loaders", [])}
        plain_iter = DataLoader.__iter__

        def loader_iter(loader):
            iterator = plain_iter(loader)
            return timed_iterator(iterator) if id(loader) in loaders else iterator

        DataLoader.__iter__ = loader_iter
