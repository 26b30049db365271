"""Spans around convexinfo's public functions, recorded from outside.

While a ``Tracer`` is active, each function in ``TARGETS`` is replaced by a
wrapper in every convexinfo module namespace that binds it (``lp_solve``
alone is bound in ``convex_kernel``, ``gpt_models``, ``spectra``, ``cli``
and the package), and methods are wrapped on their class. A wrapper records
one span per call: name, start, end, parent span and the op it belongs to.
Spans stay in memory; the metrics are computed from them when the traced
run ends, after every original has been put back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: (module, attribute) of every wrapped function; "Class.method" wraps a method.
TARGETS = (
    ("convex_kernel", "lp_solve"),
    ("convex_kernel", "topk_weight_max"),
    ("convex_kernel", "convex_weights"),
    ("gpt_models", "make_state"),
    ("gpt_models", "StateSpace.polytope"),
    ("gpt_models", "enumerate_frames"),
    ("spectra", "generalized_spectrum"),
    ("spectra", "spectral_entropy"),
    ("spectra", "frame_entropy"),
    ("composites", "separable_witness"),
    ("composites", "min_tensor_vertices"),
    ("composites", "max_tensor_member"),
    ("quantum", "quantum_entropy_min_search"),
    ("quantum", "holevo_chi"),
    ("quantum", "accessible_info_estimate"),
    ("entropic", "make_preset"),
    ("entropic", "classical_entropy"),
    ("probvec", "ProbVector.__init__"),
)

_MARK = "__perfbench_wrapped__"


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


def _outcome(name: str, args, result):
    """What a span records about its result, for the ratio metrics."""
    if name == "convex_kernel.lp_solve":
        lp = args[0]
        return (len(lp.constraints) * lp.n_vars, result.status == "optimal")
    if name == "spectra.generalized_spectrum":
        return type(result).__name__ == "NoMajorant"
    if name == "composites.separable_witness":
        return result is not None
    return None


class Tracer:
    """Context manager that wraps the targets on entry and restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.outcomes: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- install / remove --------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "convexinfo" or key.startswith("convexinfo.")]
        for module_name, attr in TARGETS:
            name = _span_name(module_name, attr)
            home = sys.modules[f"convexinfo.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                    for owner, attr, original in self._patches
                    if owner.__dict__[attr] is not original]
        leftover += [f"{key}.{attr}" for key, module in sys.modules.items()
                     if key.startswith("convexinfo")
                     for attr, value in vars(module).items() if hasattr(value, _MARK)]
        if leftover:
            raise RuntimeError(f"wrappers left in place: {sorted(set(leftover))}")
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        ops, outcomes, stack = self.ops, self.outcomes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            outcomes.append(None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            outcomes[idx] = _outcome(name, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over all recorded spans."""
        n = len(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        calls: Counter = Counter(self.names)
        self_s: defaultdict = defaultdict(float)
        for name, value in zip(self.names, self_time):
            self_s[name] += float(value)

        # spans of one name that ran beneath a span of another name
        under: Counter = Counter()
        for idx, name in enumerate(self.names):
            if name not in ("convex_kernel.lp_solve", "gpt_models.enumerate_frames"):
                continue
            seen = set()
            p = self.parents[idx]
            while p >= 0:
                seen.add(self.names[p])
                p = self.parents[p]
            for ancestor in seen:
                under[(ancestor, name)] += 1

        def outcomes_of(name):
            return [o for nm, o in zip(self.names, self.outcomes) if nm == name]

        def share(flags):
            return sum(1 for f in flags if f) / len(flags) if flags else 0.0

        lp_name = "convex_kernel.lp_solve"
        frames_name = "gpt_models.enumerate_frames"
        lp = outcomes_of(lp_name)
        return {
            "convex_kernel.lp_solve.calls": calls[lp_name],
            "convex_kernel.lp_solve.self_s": self_s[lp_name],
            "convex_kernel.lp_solve.not_optimal_frac": share([o is None or not o[1] for o in lp]),
            "convex_kernel.lp_solve.lp_cells": sum(o[0] for o in lp if o is not None),
            "convex_kernel.topk_weight_max.calls": calls["convex_kernel.topk_weight_max"],
            "convex_kernel.convex_weights.calls": calls["convex_kernel.convex_weights"],
            "convex_kernel.convex_weights.self_s": self_s["convex_kernel.convex_weights"],
            "gpt_models.make_state.calls": calls["gpt_models.make_state"],
            "gpt_models.make_state.self_s": self_s["gpt_models.make_state"],
            "gpt_models.StateSpace.polytope.calls": calls["gpt_models.StateSpace.polytope"],
            "gpt_models.StateSpace.polytope.self_s": self_s["gpt_models.StateSpace.polytope"],
            "gpt_models.enumerate_frames.calls": calls[frames_name],
            "gpt_models.enumerate_frames.self_s": self_s[frames_name],
            "gpt_models.enumerate_frames.lp_calls": under[(frames_name, lp_name)],
            "spectra.generalized_spectrum.calls": calls["spectra.generalized_spectrum"],
            "spectra.generalized_spectrum.self_s": self_s["spectra.generalized_spectrum"],
            "spectra.generalized_spectrum.lp_calls":
                under[("spectra.generalized_spectrum", lp_name)],
            "spectra.no_majorant_frac": share(outcomes_of("spectra.generalized_spectrum")),
            "spectra.spectral_entropy.self_s": self_s["spectra.spectral_entropy"],
            "spectra.frame_entropy.self_s": self_s["spectra.frame_entropy"],
            "composites.separable_witness.calls": calls["composites.separable_witness"],
            "composites.separable_witness.self_s": self_s["composites.separable_witness"],
            "composites.separable_witness.lp_calls":
                under[("composites.separable_witness", lp_name)],
            "composites.min_tensor_vertices.self_s": self_s["composites.min_tensor_vertices"],
            "composites.max_tensor_member.calls": calls["composites.max_tensor_member"],
            "composites.max_tensor_member.self_s": self_s["composites.max_tensor_member"],
            "composites.max_tensor_member.frames_calls":
                under[("composites.max_tensor_member", frames_name)],
            "composites.separable_frac": share(outcomes_of("composites.separable_witness")),
            "quantum.quantum_entropy_min_search.calls":
                calls["quantum.quantum_entropy_min_search"],
            "quantum.quantum_entropy_min_search.self_s":
                self_s["quantum.quantum_entropy_min_search"],
            "quantum.holevo_chi.self_s": self_s["quantum.holevo_chi"],
            "quantum.accessible_info_estimate.self_s": self_s["quantum.accessible_info_estimate"],
            "entropic.make_preset.calls": calls["entropic.make_preset"],
            "entropic.make_preset.self_s": self_s["entropic.make_preset"],
            "entropic.classical_entropy.calls": calls["entropic.classical_entropy"],
            "entropic.classical_entropy.self_s": self_s["entropic.classical_entropy"],
            "probvec.ProbVector.calls": calls["probvec.ProbVector"],
            "probvec.ProbVector.self_s": self_s["probvec.ProbVector"],
        }

    def span_table(self, labels: list[str]) -> list[tuple[str, str, int, float]]:
        """(function, op label, spans, median ms) for every pair seen."""
        groups: defaultdict = defaultdict(list)
        for name, op, start, end in zip(self.names, self.ops, self.starts, self.ends):
            groups[(name, labels[op] if op >= 0 else "-")].append(end - start)
        return [(name, label, len(d), 1e3 * float(np.median(d)))
                for (name, label), d in sorted(groups.items())]
