"""Spans around the `mca` package's module-level functions, patched from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``mca`` module that holds it: ``from .tensor import matmul`` binds a
module's own copy of the name, so patching only ``mca.tensor`` would miss
the calls made from ``mca.encoder``.  Spans (name, phase, start, end,
parent) and counts stay in memory until ``save`` writes them out.

Functions are found by what they are, not by a fixed list, so that the
benchmark keeps working when primitives are added, fused or removed:

* tensor primitives: public functions of ``mca.tensor`` that call ``_make``;
* kernels: public functions of ``mca.kernels`` (one span name per function
  object, the shortest of its aliases);
* objectives and metrics: their public functions.

A named function that no longer exists is reported in ``missing`` and its
metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, function, span name): single functions the per-layer metrics name.
NAMED = (
    ("mca.trainer", "_train_step", "trainer.step"),
    ("mca.trainer", "adamw_step", "trainer.adamw"),
    ("mca.trainer", "_train_set_dice", "trainer.train_dice"),
    ("mca.tensor", "backward", "tensor.backward"),
    ("mca.encoder", "tokenize", "encoder.tokenize"),
    ("mca.encoder", "encoder_forward", "encoder.forward"),
    ("mca.adaptors", "tc_forward", "adaptors.tc_forward"),
    ("mca.adaptors", "token_contrastive_loss", "adaptors.token_loss"),
    ("mca.adaptors", "sc_forward", "adaptors.sc_forward"),
    ("mca.adaptors", "sample_contrastive_loss", "adaptors.sample_loss"),
    ("mca.augment", "sample_view", "augment.sample_view"),
    ("mca.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("mca.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("mca.synthdata", "generate_split", "synthdata.generate"),
    ("mca.synthdata", "write_dataset", "synthdata.write"),
    ("mca.synthdata", "load_split", "synthdata.load"),
)


def _public_functions(module) -> Dict[int, Tuple[str, Callable]]:
    """id -> (shortest public alias, function) for functions defined in module."""
    out: Dict[int, Tuple[str, Callable]] = {}
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        prev = out.get(id(obj))
        if prev is None or len(name) < len(prev[0]):
            out[id(obj)] = (name, obj)
    return out


class Tracer:
    """In-memory span recorder with per-span phase tags and named counters."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.phases: List[str] = []
        self._phase_ids: Dict[str, int] = {}
        self.phase_id = self._intern_phase("none")
        self.span_name = array("i")
        self.span_phase = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern_phase(self, phase: str) -> int:
        if phase not in self._phase_ids:
            self._phase_ids[phase] = len(self.phases)
            self.phases.append(phase)
        return self._phase_ids[phase]

    def set_phase(self, phase: str) -> None:
        self.phase_id = self._intern_phase(phase)

    def count(self, key: str, n: float) -> None:
        """Add n to a counter kept per phase, as '<phase>/<key>'."""
        key = f"{self.phases[self.phase_id]}/{key}"
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn: Callable, span: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        stack, perf = self._stack, time.perf_counter
        names, phases, parents = self.span_name, self.span_phase, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name_id)
            phases.append(self.phase_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(out)
            return out

        return traced

    def span(self, span: str, fn: Callable):
        """Run fn() inside a span of its own (harness-level spans)."""
        return self.wrap(fn, span)()

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mca" or mod_name.startswith("mca.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; import the package first."""
        import mca.adaptors, mca.augment, mca.checkpoint, mca.cli  # noqa: E401,F401
        import mca.encoder, mca.kernels, mca.metrics, mca.objectives  # noqa: E401,F401
        import mca.synthdata, mca.tensor, mca.trainer  # noqa: E401,F401

        hooks = {
            "tensor.backward": dict(before=self._count_tape),
            "synthdata.generate": dict(after=lambda out: self.count(
                "generated_images", sum(len(split) for split in out))),
            "synthdata.load": dict(after=lambda out: self.count("loaded_images", len(out))),
        }
        targets: List[Tuple[Callable, str]] = []
        for mod_name, fn_name, span in NAMED:
            fn = getattr(sys.modules[mod_name], fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
            else:
                targets.append((fn, span))
        tensor = sys.modules["mca.tensor"]
        named_ids = {id(fn) for fn, _ in targets}
        for name, fn in _public_functions(tensor).values():
            code = getattr(fn, "__code__", None)
            if code is not None and "_make" in code.co_names and id(fn) not in named_ids:
                targets.append((fn, "tensor.prim." + name))
        for layer in ("kernels", "objectives", "metrics"):
            for name, fn in _public_functions(sys.modules["mca." + layer]).values():
                targets.append((fn, f"{layer}.{name}"))
        for fn, span in targets:
            self._patch_everywhere(fn, self.wrap(fn, span, **hooks.get(span, {})))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _count_tape(self, args) -> None:
        tape = getattr(args[0], "_tape", None)
        if tape is None:
            if "mca.tensor.Graph._tape" not in self.missing:
                self.missing.append("mca.tensor.Graph._tape")
        else:
            self.count("tape_nodes", len(tape))

    # -- output --------------------------------------------------------------

    def arrays(self) -> "SpanArrays":
        return SpanArrays(
            names=list(self.names),
            phases=list(self.phases),
            name=np.frombuffer(self.span_name, dtype=np.int32).copy(),
            phase=np.frombuffer(self.span_phase, dtype=np.int32).copy(),
            parent=np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.span_start, dtype=np.float64).copy(),
            end=np.frombuffer(self.span_end, dtype=np.float64).copy(),
        )

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path, names=np.array(a.names), phases=np.array(a.phases), name=a.name,
            phase=a.phase, parent=a.parent, start=a.start, end=a.end,
            count_keys=np.array(sorted(self.counts), dtype=str),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)]),
        )


class SpanArrays:
    """Columnar spans with derived durations, self times and selections."""

    def __init__(self, names, phases, name, phase, parent, start, end):
        self.names, self.phases = names, phases
        self.name, self.phase, self.parent = name, phase, parent
        self.start, self.end = start, end
        self.duration = end - start
        self.self_time = self_times(self.duration, parent)

    def select(self, prefix: str, phases=None) -> np.ndarray:
        """Boolean mask of spans whose name equals or starts with prefix."""
        ids = [i for i, n in enumerate(self.names)
               if n == prefix or n.startswith(prefix + ".")]
        mask = np.isin(self.name, ids)
        if phases is not None:
            pids = [i for i, p in enumerate(self.phases) if p in phases]
            mask &= np.isin(self.phase, pids)
        return mask

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in mask with no ancestor in mask."""
        return mask & ~has_ancestor_in(self.parent, mask)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children."""
    child_sum = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], duration[has_parent])
    return duration - child_sum


def has_ancestor_in(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, whether some proper ancestor is in mask."""
    out = np.zeros(len(parent), dtype=bool)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        out[live] |= mask[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    return out
