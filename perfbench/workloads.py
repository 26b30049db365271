"""The benchmark's workloads: seeded inputs, one op per CLI request, output checks.

An op is the library calls behind one CLI command, made in-process on
models built once per workload. A workload calls the library module it is
given: ``convexinfo`` itself, or the benchmark's frozen copy ``yardstick``.
Ops come in passes: every pass has the same ops on the same models, and
only the states, matrices and tables change, drawn from
``(seed, pass index)``. Each op's output is checked against an
independent answer from ``oracle.py``, or against ``reference.json`` for the
model-only facts (frames, the no-signalling box) recorded from the library's
first release.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import convexinfo as ci
from convexinfo import cli

import oracle

HERE = Path(__file__).resolve().parent
PAIRS = ("shannon", "renyi:2.0", "tsallis:0.5")
#: Every invariant value is compared to its reference within this.
VALUE_TOL = 1e-8


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    #: Returns None when the output is right, else what is wrong with it.
    check: Callable[[object], str | None]


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def model_doc(label: str, reference: dict) -> dict:
    """The CLI's model JSON for a label such as polygon5, simplex4 or custom3d10."""
    if label.startswith("polygon"):
        return {"kind": "regular_polygon", "n": int(label[7:])}
    if label.startswith("simplex"):
        return {"kind": "simplex", "n": int(label[7:])}
    return {"kind": "custom_polytope", "vertices": reference["custom"][label]}


def build_model(label: str, reference: dict, lib=ci) -> ci.StateSpace:
    return lib.model_from_json(model_doc(label, reference))


def _off(a, b) -> float:
    """Largest absolute entry of a - b (complex entries included); inf on a shape mismatch."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return np.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _first_problem(*problems):
    return next((p for p in problems if p), None)


# -- states and their checks --------------------------------------------------------


def interior_state(rng, vertices: np.ndarray):
    """Coordinates of a random interior state with a clear spectrum verdict."""
    for _ in range(100):
        w = rng.dirichlet(np.full(len(vertices), 0.7))
        coords = w @ vertices[:, :-1]
        point = np.append(coords, 1.0)
        ref = oracle.SpectrumReference(vertices, point)
        if ref.clear:
            return [float(c) for c in coords], point, ref
    raise RuntimeError("no state with a clear spectrum verdict in 100 draws")


def check_spectrum(out: dict, vertices, point, ref) -> str | None:
    if out["exists"] != ref.exists:
        return f"verdict {'spectrum' if out['exists'] else 'NoMajorant'}, expected the other"
    if out["exists"]:
        w, idx = np.asarray(out["weights"], float), list(out["support"])
        return _first_problem(
            len(set(idx)) != len(idx) and "repeated support vertex",
            _off(oracle.prefix_profile(w, ref.n), ref.tk) > VALUE_TOL
            and "majorant weights miss the level suprema T_k",
            _off(w @ vertices[idx], point) > VALUE_TOL
            and "majorant weights do not reconstruct the state")
    tk = np.ones(ref.n)
    tk[:len(out["tk"])] = out["tk"]
    cand = np.asarray(out["best_candidate"], float)
    return _first_problem(
        _off(tk, ref.tk) > VALUE_TOL and "tk differs from the level suprema",
        (cand.min() < -oracle.ZERO or _off(cand @ vertices, point) > VALUE_TOL)
        and "best_candidate does not reconstruct the state",
        not out["gap"] >= 0.0 and f"gap {out['gap']!r} is negative")


def check_general_entropy(out: dict, spec: str, frames: list[dict], point, ref) -> str | None:
    if (out["spectral_entropy"] is None) != (not ref.exists):
        return "spectral entropy defined iff the spectrum exists: verdicts differ"
    if ref.exists and abs(out["spectral_entropy"] - oracle.entropy(spec, ref.weights)) > VALUE_TOL:
        return "spectral entropy differs from the closed form"
    values = oracle.frame_entropies(spec, frames, point)
    sets = [f["vertices"] for f in frames]
    if abs(out["frame_entropy"] - min(values)) > VALUE_TOL:
        return "frame entropy differs from the minimum over the recorded frames"
    if out["argmin_frame"] not in sets:
        return f"argmin frame {out['argmin_frame']} is not a frame of the model"
    if abs(values[sets.index(out["argmin_frame"])] - out["frame_entropy"]) > VALUE_TOL:
        return "argmin frame does not attain the frame entropy"
    return None


def check_frames(out: dict, vertices, frames: list[dict]) -> str | None:
    got = [f["vertices"] for f in out["frames"]]
    if got != [f["vertices"] for f in frames]:
        return f"frame vertex sets {got} differ from the recorded ones"
    unit = np.zeros(vertices.shape[1])
    unit[-1] = 1.0
    for f in out["frames"]:
        e = np.asarray(f["effects"], float)
        on_vertices = e @ vertices.T
        if on_vertices.min() < -VALUE_TOL or on_vertices.max() > 1.0 + VALUE_TOL:
            return "a frame effect leaves [0, 1]"
        if _off(e.sum(axis=0), unit) > VALUE_TOL:
            return "frame effects do not sum to the unit effect"
        if _off(on_vertices[:, f["vertices"]], np.eye(len(e))) > VALUE_TOL:
            return "frame effects do not distinguish the frame's vertices"
    return None


# -- spectrum-ladder ------------------------------------------------------------------


class SpectrumLadder:
    """Generalized spectra and both state entropies on a ladder of model sizes.

    The 16-vertex cap is reached in R^2 and R^3; ``entropy --general`` stops
    at 12 vertices, since frame enumeration on the 16-gon alone takes
    seconds. The rungs are dense around the median and the 90th percentile
    (op costs spread smoothly over a factor of a few there), so that neither
    percentile jumps when two ops trade places or when the machine's speed
    shifts for part of a run. The median falls among four simplex7 spectra,
    whose cost hardly depends on the state (a simplex decomposes uniquely),
    so that polygon and custom spectra whose cost does depend on it move
    the median little when they cross it.
    """

    #: Nominal wall time of one timed pass (its ops, their checks and the
    #: yardstick's pass) at the library's first release on the build machine:
    #: a run of --seconds makes round(--seconds / PASS_SECONDS) passes, the
    #: same count on every version.
    PASS_SECONDS = 9.5
    SPECTRUM = (("polygon4", 2), ("polygon5", 2), ("polygon6", 1), ("polygon7", 1),
                ("polygon8", 1), ("polygon9", 1), ("polygon10", 1), ("polygon11", 1),
                ("polygon12", 1), ("polygon14", 1), ("polygon16", 1),
                ("simplex4", 2), ("simplex5", 1), ("simplex6", 1), ("simplex7", 4),
                ("simplex8", 1), ("simplex9", 1), ("simplex10", 1),
                ("custom2d6", 2), ("custom2d8", 1), ("custom2d10", 1), ("custom2d12", 1),
                ("custom2d16", 1), ("custom3d6", 2), ("custom3d8", 1), ("custom3d10", 1),
                ("custom3d16", 1))
    ENTROPY = ("polygon4", "polygon6", "polygon8", "polygon12", "simplex4", "simplex6",
               "custom2d8", "custom3d6")

    def __init__(self, seed: int, reference: dict, lib=ci):
        self.seed = seed
        self.lib = lib
        self.frames = reference["frames"]
        labels = {m for m, _ in self.SPECTRUM} | set(self.ENTROPY)
        self.models = {m: build_model(m, reference, lib) for m in sorted(labels)}

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for label, count in self.SPECTRUM:
            for _ in range(count):
                ops.append(self._spectrum(rng, label))
        for k, label in enumerate(self.ENTROPY):
            ops.append(self._entropy(rng, label, PAIRS[(k + index) % len(PAIRS)]))
        return ops

    def _spectrum(self, rng, label) -> Op:
        space = self.models[label]
        vertices = space.vertex_array()
        coords, point, ref = interior_state(rng, vertices)
        lib = self.lib

        def run():
            return lib.generalized_spectrum(space, lib.make_state(space, coords)).to_json()

        return Op(f"spectrum {label}", run,
                  lambda out: check_spectrum(out, vertices, point, ref))

    def _entropy(self, rng, label, spec) -> Op:
        space = self.models[label]
        coords, point, ref = interior_state(rng, space.vertex_array())
        frames = self.frames[label]
        lib = self.lib

        def run():
            pair = lib.pair_from_spec(spec)
            state = lib.make_state(space, coords)
            try:
                spectral = lib.spectral_entropy(pair, space, state)
            except lib.errors.SpectrumUndefined:
                spectral = None
            value, frame = lib.frame_entropy(pair, space, state)
            return {"frame_entropy": value, "spectral_entropy": spectral,
                    "argmin_frame": list(frame.vertex_indices)}

        return Op(f"entropy {label} {spec}", run,
                  lambda out: check_general_entropy(out, spec, frames, point, ref))


# -- tensor-separable -------------------------------------------------------------------


def _extreme_effects(vertices: np.ndarray, frames: list[dict]) -> np.ndarray:
    """Zero and unit effects plus every recorded frame effect, one per row."""
    dim = vertices.shape[1]
    unit = np.zeros(dim)
    unit[-1] = 1.0
    return np.vstack([np.zeros(dim), unit] + [f["effects"] for f in frames])


def _separable_table(rng, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    w = rng.dirichlet(np.full(len(va) * len(vb), 0.5)).reshape(len(va), len(vb))
    return va.T @ w @ vb


def outside_table(rng, va, vb, effects_a, effects_b, box=None) -> np.ndarray:
    """A joint table that a product of extreme effects sends clearly outside [0, 1].

    Either the no-signalling box scaled past itself (pass ``box``) or a
    near-product state pushed away from the product of the barycenters.
    """
    center = np.outer(va.mean(axis=0), vb.mean(axis=0))
    for _ in range(100):
        if box is not None:
            table = center + rng.uniform(1.2, 2.0) * (box - center)
        else:
            corner = np.outer(va[rng.integers(len(va))], vb[rng.integers(len(vb))])
            sigma = 0.9 * corner + 0.1 * _separable_table(rng, va, vb)
            table = center + rng.uniform(1.5, 2.5) * (sigma - center)
        lo, hi = oracle.product_value_range(effects_a, effects_b, table)
        if lo < -1e-3 or hi > 1.0 + 1e-3:
            return table
    raise RuntimeError("no certified not-a-state table in 100 draws")


def check_separable(out: dict, expected: str, va, vb, table) -> str | None:
    verdict = "separable" if out["separable"] else out["classification"]
    if verdict != expected:
        return f"verdict {verdict}, expected {expected}"
    if not out["separable"]:
        if out["max_member"] != (verdict == "entangled"):
            return "max-tensor membership contradicts the classification"
        return None
    witness = [(w["a"], w["b"], w["weight"]) for w in out["witness"]]
    recon = sum(w * np.outer(va[a], vb[b]) for a, b, w in witness)
    return _first_problem(
        min(w for _, _, w in witness) <= 0.0 and "non-positive witness weight",
        _off(recon, table) > VALUE_TOL and "witness weights do not reconstruct the joint state")


class TensorSeparable:
    """The ``separable`` command on product spaces up to 8 x 8 factor vertices.

    Separable mixtures span every factor pair. Entangled states (mixtures
    with the no-signalling box) and not-a-state tables (separable states or
    the box pushed past the state space) use factors with at most 5
    vertices: their max-tensor check enumerates frames repeatedly. Factor
    sizes climb in small steps, most of them at 7 and 8 vertices, so the
    median falls on the largest separable products (tens of product
    vertices, several milliseconds) with costs spread smoothly around it;
    the not-a-state ops, which stop at the first violated effect pair, do
    the same around the 90th percentile. There are 28 separable ops to the 7
    others, which puts the 90th percentile in the middle of one not-a-state
    op's samples rather than on the edge between two.
    """

    PASS_SECONDS = 2.0  # see SpectrumLadder
    SEPARABLE = (("polygon4", "polygon4"), ("simplex3", "polygon4"), ("simplex3", "simplex3"),
                 ("polygon5", "polygon5"), ("simplex5", "simplex5"), ("polygon6", "polygon6"),
                 ("polygon5", "polygon7"), ("simplex6", "polygon6"), ("polygon7", "polygon7"),
                 ("simplex6", "simplex6"), ("polygon7", "simplex7"), ("simplex7", "simplex7"),
                 ("polygon8", "polygon7"), ("polygon8", "simplex7"), ("simplex7", "polygon8"),
                 ("polygon7", "polygon8"), ("polygon8", "polygon8"), ("simplex8", "polygon8"),
                 ("polygon8", "simplex8"), ("simplex7", "polygon7"), ("polygon8", "simplex6"),
                 ("polygon4", "simplex4"), ("simplex4", "polygon5"), ("polygon6", "polygon8"),
                 ("simplex6", "polygon8"), ("polygon7", "simplex8"), ("simplex6", "simplex7"),
                 ("simplex8", "polygon7"))
    ENTANGLED = (("polygon4", "polygon4"),)
    NOT_A_STATE = (("polygon4", "polygon4"), ("simplex3", "polygon4"), ("polygon5", "simplex3"),
                   ("polygon4", "polygon5"), ("polygon4", "simplex3"), ("simplex3", "polygon5"))

    def __init__(self, seed: int, reference: dict, lib=ci):
        self.seed = seed
        self.lib = lib
        self.frames = reference["frames"]
        self.box = np.asarray(reference["pr_box_square"], float)
        pairs = self.SEPARABLE + self.ENTANGLED + self.NOT_A_STATE
        labels = sorted({m for pair in pairs for m in pair})
        self.models = {m: build_model(m, reference, lib) for m in labels}
        self.products = {pair: lib.ProductSpace(self.models[pair[0]], self.models[pair[1]])
                         for pair in pairs}
        sq = self.frames["polygon4"]
        self.chsh = oracle.chsh_functional(sq, sq)
        v4 = self.models["polygon4"].vertex_array()
        self.chsh_local = float((v4 @ self.chsh @ v4.T).max())

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = [self._op(pair, "separable", _separable_table(rng, *self._vertices(pair)))
               for pair in self.SEPARABLE]
        ops += [self._op(pair, "entangled", self._entangled(rng, pair))
                for pair in self.ENTANGLED]
        ops += [self._op(pair, "not-a-state", self._outside(rng, pair))
                for pair in self.NOT_A_STATE]
        return ops

    def _vertices(self, pair):
        return self.models[pair[0]].vertex_array(), self.models[pair[1]].vertex_array()

    def _effects(self, pair):
        return tuple(_extreme_effects(self.models[m].vertex_array(), self.frames[m])
                     for m in pair)

    def _max_tensor_range(self, pair, table):
        return oracle.product_value_range(*self._effects(pair), table)

    def _entangled(self, rng, pair):
        """Box mixtures, certified outside the minimal tensor set by CHSH."""
        for _ in range(100):
            lam = rng.uniform(0.75, 0.95)
            table = lam * self.box + (1.0 - lam) * _separable_table(rng, *self._vertices(pair))
            lo, hi = self._max_tensor_range(pair, table)
            if (np.sum(self.chsh * table) > self.chsh_local + 1e-3
                    and lo >= -1e-12 and hi <= 1.0 + 1e-12):
                return table
        raise RuntimeError("no certified entangled state in 100 draws")

    def _outside(self, rng, pair):
        box = self.box if pair == ("polygon4", "polygon4") else None
        return outside_table(rng, *self._vertices(pair), *self._effects(pair), box)

    def _op(self, pair, expected, table) -> Op:
        ps = self.products[pair]
        va, vb = self._vertices(pair)
        rows = table.tolist()
        lib = self.lib

        def run():
            omega = lib.JointState(np.asarray(rows, float))
            witness = lib.separable_witness(ps, omega)
            if witness is not None:
                return {"separable": True,
                        "witness": [{"a": a, "b": b, "weight": w} for (a, b), w in witness]}
            return {"separable": False, "max_member": lib.max_tensor_member(ps, omega),
                    "classification": lib.classify_joint(ps, omega)}

        return Op(f"separable {expected} {pair[0]}x{pair[1]}", run,
                  lambda out: check_separable(out, expected, va, vb, table))


# -- quantum-search -----------------------------------------------------------------------


def random_density(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_povm(rng, n: int, outcomes: int) -> list[np.ndarray]:
    pieces = [random_density(rng, n) for _ in range(outcomes)]
    evals, evecs = np.linalg.eigh(sum(pieces))
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    return [inv_sqrt @ p @ inv_sqrt for p in pieces]


def matrix_doc(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def check_qentropy(out: dict, spec: str, rho: np.ndarray) -> str | None:
    spectral = oracle.entropy(spec, oracle.eigen_distribution(rho))
    if abs(out["value"] - spectral) > VALUE_TOL:
        return "spectral entropy differs from the closed form"
    if not spectral - 1e-9 <= out["search_value"] <= spectral + 1e-5:
        return f"search value {out['search_value']!r} outside [spectral - 1e-9, spectral + 1e-5]"
    n = rho.shape[0]
    witness = out.get("witness")
    if witness is None:
        return None if n <= out["witness_outcomes"] <= 2 * n else "witness outcome count"
    effects = np.asarray(witness.effects, complex)
    second = np.linalg.eigvalsh(effects)[:, -2] if n > 1 else np.zeros(1)
    if not witness.rank_one or second.max() > 1e-7:
        return "min-search witness is not a rank-one POVM"
    if _off(effects.sum(axis=0), np.eye(n)) > VALUE_TOL:
        return "min-search witness does not sum to the identity"
    probs = np.einsum("kab,ba->k", effects, rho).real
    if abs(oracle.entropy(spec, np.maximum(probs, 0.0) / probs.sum())
           - out["search_value"]) > VALUE_TOL:
        return "min-search witness does not attain the search value"
    return None


def check_holevo(out: dict, weights, states, effects) -> str | None:
    chi = oracle.holevo_chi(weights, states)
    hx = oracle.entropy("shannon", weights)
    return _first_problem(
        abs(out["chi"] - chi) > VALUE_TOL and "chi differs from the closed form",
        abs(out["hx"] - hx) > VALUE_TOL and "H(X) differs from the closed form",
        out["strict_gap"] != (chi < hx - 1e-9) and "strict_gap verdict differs",
        abs(out["accessible"] - oracle.accessible_information(weights, states, effects))
        > VALUE_TOL and "accessible information differs from the closed form")


def check_sweep(rows: list, family: str, grid: np.ndarray, p) -> str | None:
    if _off([r[0] for r in rows], grid) > VALUE_TOL:
        return "sweep parameters differ from the grid"
    want = [oracle.entropy(f"{family}:{float(a)!r}", p) for a in grid]
    if _off([r[1] for r in rows], want) > VALUE_TOL:
        return "sweep values differ from the closed forms"
    return None


def _clear_ensemble(rng, n: int, k: int):
    """Ensemble weights and states whose strict_gap verdict is not borderline."""
    for _ in range(100):
        weights = rng.dirichlet(np.ones(k))
        states = [random_density(rng, n) for _ in range(k)]
        gap = oracle.entropy("shannon", weights) - oracle.holevo_chi(weights, states)
        if gap > 1e-6:
            return weights, states
    raise RuntimeError("no ensemble with a clear Holevo gap in 100 draws")


class QuantumSearch:
    """Measurement-minimum entropies, Holevo quantities and preset sweeps.

    No LP runs here; the cost is thousands of scalar entropy evaluations and
    ProbVector constructions per min-search. The cheap holevo and sweep ops
    are a little under half of a pass, which puts the median on the qubit
    searches and the 90th percentile on the d = 16 ones.
    """

    PASS_SECONDS = 1.95  # see SpectrumLadder
    QENTROPY_DIMS = (2, 4, 8, 16)
    HOLEVO = ((2, 2), (4, 3), (8, 4))  # (dimension, states)
    SWEEPS = (("renyi", 3), ("tsallis", 8), ("renyi", 16), ("tsallis", 4), ("renyi", 6),
              ("tsallis", 12))
    GRIDS = {"renyi": (1.25, 3.75, 11), "tsallis": (0.05, 0.95, 11)}
    BUDGET = 1000

    def __init__(self, seed: int, reference: dict, lib=ci):
        self.seed = seed
        self.lib = lib

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = [self._qentropy(rng, n, spec) for n in self.QENTROPY_DIMS for spec in PAIRS]
        ops += [self._holevo(rng, n, k) for n, k in self.HOLEVO]
        ops += [self._sweep(rng, family, size) for family, size in self.SWEEPS]
        return ops

    def _qentropy(self, rng, n, spec) -> Op:
        rho = random_density(rng, n)
        entries = rho.tolist()
        seed = int(rng.integers(2**31))
        lib = self.lib

        def run():
            pair = lib.pair_from_spec(spec)
            dm = lib.DensityMatrix(entries)
            value, witness = lib.quantum_entropy_min_search(pair, dm, budget=self.BUDGET,
                                                           seed=seed)
            return {"value": lib.quantum_entropy(pair, dm), "search_value": value,
                    "witness_outcomes": len(witness), "witness": witness}

        return Op(f"qentropy d{n} {spec}", run, lambda out: check_qentropy(out, spec, rho))

    def _holevo(self, rng, n, k) -> Op:
        weights, states = _clear_ensemble(rng, n, k)
        effects = random_povm(rng, n, n + 1)
        w_list = weights.tolist()
        s_lists = [s.tolist() for s in states]
        e_lists = [e.tolist() for e in effects]
        lib = self.lib

        def run():
            ensemble = lib.Ensemble(weights=lib.ProbVector(w_list),
                                    states=tuple(lib.DensityMatrix(s) for s in s_lists))
            chi = lib.holevo_chi(ensemble)
            hx = lib.classical_entropy(lib.make_preset("shannon"), ensemble.weights)
            return {"chi": chi, "hx": hx, "strict_gap": bool(chi < hx - 1e-9),
                    "accessible": lib.accessible_info_estimate(ensemble, lib.Povm(e_lists))}

        return Op(f"holevo d{n} k{k}", run,
                  lambda out: check_holevo(out, weights, states, effects))

    def _sweep(self, rng, family, size) -> Op:
        p = rng.dirichlet(np.ones(size)).tolist()
        grid = np.linspace(*self.GRIDS[family])
        lib = self.lib

        def run():
            pv = lib.ProbVector(p)
            return [(float(a), lib.classical_entropy(lib.make_preset(family, float(a)), pv))
                    for a in grid]

        return Op(f"sweep {family} n{size}", run,
                  lambda rows: check_sweep(rows, family, grid, p))


# -- the CLI pass of a traced run -----------------------------------------------------------


def _floats(values) -> str:
    """Comma-separated floats; pass as --flag=value, since a leading minus
    sign would otherwise read as an option."""
    return ",".join(repr(float(v)) for v in values)


def _parse_stdout(command: str, text: str):
    if command == "sweep":
        lines = text.strip().splitlines()
        if lines[0] != "parameter,value":
            raise ValueError(f"unexpected sweep header {lines[0]!r}")
        return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return json.loads(text)


class CliPass:
    """The eight public subcommands once each, small inputs, through ``cli.main``.

    Each op passes an argv to ``cli.main`` in this process, with model and
    matrix files in a work directory, and parses what it prints. A traced
    run ends with this pass, so that every layer, ``cli`` included, has
    spans in every workload's traced run. Its ``separable`` op is a
    not-a-state table, so that it reaches ``max_tensor_member``.
    """

    def __init__(self, seed: int, reference: dict, workdir: Path):
        self.seed = seed
        self.frames = reference["frames"]
        self.workdir = workdir
        self.models = {}
        for label in ("polygon4", "polygon5", "simplex3"):
            self._write(f"{label}.json", model_doc(label, reference))
            self.models[label] = build_model(label, reference).vertex_array()

    def _write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _op(self, label, argv, check) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-300:]}")
            return _parse_stdout(argv[0], out.getvalue())

        return Op(f"cli {label}", run, check)

    def make_pass(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0])
        spec = "shannon"
        ops = []

        v5 = self.models["polygon5"]
        coords, point, ref = interior_state(rng, v5)
        ops.append(self._op(
            "entropy --general polygon5",
            ["entropy", "--pair", spec, "--model", str(self.workdir / "polygon5.json"),
             f"--state={_floats(coords)}", "--general"],
            lambda out: check_general_entropy(out, spec, self.frames["polygon5"], point, ref)))

        rho = random_density(rng, 2)
        rho_path = self._write("rho.json", matrix_doc(rho))
        ops.append(self._op(
            "qentropy --min-search d2",
            ["qentropy", "--pair", spec, "--rho", rho_path, "--min-search",
             "--budget", "200", "--seed", str(int(rng.integers(2**31)))],
            lambda out: check_qentropy(out, spec, rho)))

        v4 = self.models["polygon4"]
        s_coords, s_point, s_ref = interior_state(rng, v4)
        ops.append(self._op(
            "spectrum polygon4",
            ["spectrum", "--model", str(self.workdir / "polygon4.json"),
             f"--state={_floats(s_coords)}"],
            lambda out: check_spectrum(out, v4, s_point, s_ref)))

        p, q, majorized = self._majorize_pair(rng)
        ops.append(self._op(
            "majorize --p --q", ["majorize", "--p", _floats(p), "--q", _floats(q)],
            lambda out: None if out["majorized"] == majorized else "majorization verdict"))

        ops.append(self._op(
            "frames polygon4", ["frames", "--model", str(self.workdir / "polygon4.json")],
            lambda out: check_frames(out, v4, self.frames["polygon4"])))

        vb = self.models["simplex3"]
        table = outside_table(rng, v4, vb, _extreme_effects(v4, self.frames["polygon4"]),
                              _extreme_effects(vb, self.frames["simplex3"]))
        joint_path = self._write("joint.json", table.tolist())
        ops.append(self._op(
            "separable not-a-state polygon4xsimplex3",
            ["separable", "--model-a", str(self.workdir / "polygon4.json"),
             "--model-b", str(self.workdir / "simplex3.json"), "--joint", joint_path],
            lambda out: check_separable(out, "not-a-state", v4, vb, table)))

        weights, states = _clear_ensemble(rng, 2, 3)
        effects = random_povm(rng, 2, 3)
        ens_path = self._write("ensemble.json", {
            "weights": weights.tolist(), "states": [matrix_doc(s) for s in states]})
        povm_path = self._write("povm.json", [matrix_doc(e) for e in effects])
        ops.append(self._op(
            "holevo --povm d2",
            ["holevo", "--ensemble", ens_path, "--povm", povm_path],
            lambda out: check_holevo(out, weights, states, effects)))

        family = "renyi"
        start, stop, count = QuantumSearch.GRIDS[family]
        sweep_p = rng.dirichlet(np.ones(4)).tolist()
        ops.append(self._op(
            f"sweep {family}",
            ["sweep", "--family", family, "--grid", f"{start}:{stop}:{count}",
             "--p", _floats(sweep_p)],
            lambda rows: check_sweep(rows, family, np.linspace(start, stop, count), sweep_p)))
        return ops

    @staticmethod
    def _majorize_pair(rng):
        """(p, q, p majorized by q) away from the verdict's tolerance edge."""
        for _ in range(100):
            q = rng.dirichlet(np.ones(5))
            if rng.random() < 0.5:
                p = rng.dirichlet(np.ones(5))
            else:  # average q towards uniform: always majorized by q
                t = rng.uniform(0.2, 0.8)
                p = t * q + (1.0 - t) / 5
            lead = (oracle.prefix_profile(p, 5) - oracle.prefix_profile(q, 5))[:-1]
            if lead.max() <= 1e-12 or lead.max() >= 1e-6:
                return p.tolist(), q.tolist(), bool(lead.max() <= 1e-12)
        raise RuntimeError("no clear majorization pair in 100 draws")


#: The workloads by name.
WORKLOADS = {
    "spectrum-ladder": SpectrumLadder,
    "tensor-separable": TensorSeparable,
    "quantum-search": QuantumSearch,
}
