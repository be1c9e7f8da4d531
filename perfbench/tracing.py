"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps library functions from the outside, so the library itself
carries no tracing code. The modules import each other's functions by name
(``from .features import FeatureStore``), so a function has to be replaced
in every module that looks it up at call time, not only in the module that
defines it: replacing ``egoinf.deepwalk.deepwalk_embed`` alone would record
nothing, because ``egoinf.features`` holds its own reference. ``SPANS``
lists each traced function with every such lookup site.

Spans are kept in memory as (name, phase, start, end, parent) tuples and
written out once the run ends. A span's self time is its duration minus
the durations of its direct children; spans nest on one thread, so the
children never overlap.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter

# span name -> (attribute path, modules that look the attribute up)
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cascade.generate_dataset": ("generate_dataset", ("egoinf.cascade",)),
    "cascade.cascade_rounds": ("cascade_rounds", ("egoinf.cascade",)),
    "sampling.rwr_sample": ("rwr_sample", ("egoinf.cascade",)),
    "deepwalk.deepwalk_embed": ("deepwalk_embed", ("egoinf.features",)),
    "features.bundle": ("FeatureStore.bundle", ("egoinf.features",)),
    "autoenc.train_vgae": ("train_vgae", ("egoinf.autoenc",)),
    "augment.generate_augmentations": ("generate_augmentations", ("egoinf.training",)),
    "augment.candidate_edges": ("candidate_edges", ("egoinf.augment",)),
    "autodiff.backward": ("Tape.backward", ("egoinf.autodiff",)),
    "layers.prediction_forward": ("prediction_forward", ("egoinf.training",)),
    "layers.gat_forward": ("gat_forward", ("egoinf.layers",)),
    "optim.step": ("Adagrad.step", ("egoinf.optim",)),
    "rng.stream": (
        "stream",
        (
            "egoinf.rng",
            "egoinf.augment",
            "egoinf.autoenc",
            "egoinf.cascade",
            "egoinf.features",
            "egoinf.training",
        ),
    ),
    "training.sample_loss": ("sample_loss", ("egoinf.training",)),
    "training.train_joint": ("train_joint", ("egoinf.ablation", "egoinf.training")),
    "training.pretrain_augmenter": (
        "pretrain_augmenter",
        ("egoinf.ablation", "egoinf.training"),
    ),
    "training.predict": ("predict", ("egoinf.ablation", "egoinf.training")),
}

# counted without a span: constructing a tape costs nothing worth timing
COUNTED = {"autodiff.tapes": ("Tape.__init__", ("egoinf.autodiff",))}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters while installed; ``phase`` tags them."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple | None] = []
        self.calls: Counter = Counter()  # (phase, name)
        self.self_s: Counter = Counter()  # (phase, name)
        self.child_calls: Counter = Counter()  # (phase, parent, child)
        self.counts: Counter = Counter()  # (phase, counter)
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._saved: list[tuple] = []
        self._last_candidates = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (path, modules) in SPANS.items():
            self._patch(path, modules, self._span_wrapper(name, _HOOKS.get(name)))
        for name, (path, modules) in COUNTED.items():
            self._patch(path, modules, self._count_wrapper(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, path, modules, make_wrapper) -> None:
        # every site must hold the same function, or a site was missed
        sites = [_resolve(m, path) for m in modules]
        originals = {id(getattr(owner, attr)) for owner, attr in sites}
        if len(originals) != 1:
            raise RuntimeError(f"{path}: call sites disagree on the function")
        wrapper = make_wrapper(getattr(*sites[0]))
        for owner, attr in sites:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _count_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[(self.phase, name)] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _span_wrapper(self, name, hook):
        def make(fn):
            def wrapper(*args, **kwargs):
                stack = self._stack
                index = len(self.spans)
                self.spans.append(None)
                parent = stack[-1] if stack else None
                frame = [index, name, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - start
                    phase = self.phase
                    self.spans[index] = (
                        name, phase, start, end, parent[0] if parent else -1
                    )
                    self.calls[(phase, name)] += 1
                    self.self_s[(phase, name)] += duration - frame[2]
                    if parent is not None:
                        parent[2] += duration
                        self.child_calls[(phase, parent[1], name)] += 1
                if hook is not None:
                    hook(self, args, result)
                return result

            return wrapper

        return make

    # -- results -----------------------------------------------------------

    def span_table(self) -> list[dict]:
        """Per phase and span: calls and summed self time."""
        return [
            {"phase": phase, "name": name, "calls": n, "self_s": self.self_s[(phase, name)]}
            for (phase, name), n in sorted(self.calls.items())
        ]


def _on_backward(tracer, args, result):
    # args = (tape, loss); the reverse sweep visits nodes 0..loss.idx
    tracer.counts[(tracer.phase, "autodiff.backward_nodes")] += args[1].idx + 1


def _on_candidates(tracer, args, result):
    tracer._last_candidates = len(result)
    tracer.counts[(tracer.phase, "augment.candidates")] += len(result)


def _on_augmentations(tracer, args, result):
    # candidate_edges runs once inside each call that returns copies
    sample = args[0]
    added = sum(c.graph.num_edges - sample.graph.num_edges for c in result)
    phase = tracer.phase
    tracer.counts[(phase, "augment.copies")] += len(result)
    tracer.counts[(phase, "augment.added_edges")] += added
    tracer.counts[(phase, "augment.candidate_slots")] += len(result) * tracer._last_candidates


def _on_generate_dataset(tracer, args, result):
    tracer.counts[(tracer.phase, "sampling.egos_emitted")] += len(result.samples)


_HOOKS = {
    "autodiff.backward": _on_backward,
    "augment.candidate_edges": _on_candidates,
    "augment.generate_augmentations": _on_augmentations,
    "cascade.generate_dataset": _on_generate_dataset,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase: str, ops: int) -> dict[str, float]:
    """Per-module figures of one phase, divided by the operations it ran."""

    def calls(name):
        return tracer.calls[(phase, name)] / ops

    def count(name):
        return tracer.counts[(phase, name)] / ops

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = tracer.self_s[(phase, name)] / ops
    dw_calls = calls("deepwalk.deepwalk_embed")
    out["deepwalk.ms_per_call"] = _ratio(
        1000.0 * out["deepwalk.deepwalk_embed.self_s"], dw_calls
    )
    # deepwalk_embed runs only on a cache miss inside FeatureStore.bundle
    out["features.hit_ratio"] = _ratio(
        calls("features.bundle") - dw_calls, calls("features.bundle")
    )
    out["sampling.accept_ratio"] = _ratio(
        count("sampling.egos_emitted"), calls("sampling.rwr_sample")
    )
    out["augment.candidates_per_sample"] = _ratio(
        count("augment.candidates"), calls("augment.candidate_edges")
    )
    out["augment.added_edges_per_copy"] = _ratio(
        count("augment.added_edges"), count("augment.copies")
    )
    out["augment.added_ratio"] = _ratio(
        count("augment.added_edges"), count("augment.candidate_slots")
    )
    out["autodiff.tapes"] = count("autodiff.tapes")
    out["autodiff.nodes_per_backward"] = _ratio(
        count("autodiff.backward_nodes"), calls("autodiff.backward")
    )
    out["training.predict.variants_per_call"] = _ratio(
        tracer.child_calls[(phase, "training.predict", "layers.prediction_forward")]
        / ops,
        calls("training.predict"),
    )
    return out
