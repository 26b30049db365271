"""Command-line front end: JSON in, one JSON document (or CSV sweep) out.

All numbers are printed with 12 significant digits; entropic quantities are
computed in nats and only rescaled to bits at this layer. Validation
problems exit 2; an undefined spectrum exits 3 under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .composites import JointState, ProductSpace, max_tensor_member, separable_witness
from .convex_kernel import Constraint, LinearProgram, lp_solve
from .entropic import classical_entropy, make_preset, pair_from_grid_descriptor, pair_from_spec
from .errors import ConvexInfoError, SpectrumUndefined, ValidationError
from .gpt_models import enumerate_frames, load_model, make_state
from .probvec import ProbVector, majorizes
from .quantum import (
    DensityMatrix,
    Ensemble,
    Povm,
    accessible_info_estimate,
    holevo_chi,
    quantum_entropy,
    quantum_entropy_min_search,
)
from .spectra import (
    NoMajorant,
    frame_entropy,
    generalized_majorizes,
    generalized_spectrum,
    spectral_entropy,
)

LN2 = math.log(2.0)

#: Output keys holding nat-valued entropies (rescaled under --bits).
_ENTROPIC_KEYS = {"value", "search_value", "chi", "hx", "accessible",
                  "frame_entropy", "spectral_entropy"}


def _round12(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError("refusing to emit a non-finite number")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(payload: dict, bits: bool) -> None:
    if bits:
        payload = {k: (v / LN2 if k in _ENTROPIC_KEYS and isinstance(v, float) else v)
                   for k, v in payload.items()}
    print(json.dumps(_round12(payload)))


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _load_json(path: str, flag: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{flag}: cannot read {path!r}: {exc}") from None


def _parse_complex_matrix(doc) -> np.ndarray:
    try:
        m = np.asarray([[complex(cell[0], cell[1]) for cell in row] for row in doc])
    except (TypeError, IndexError):
        raise ValidationError("matrices are nested arrays of [re, im] pairs") from None
    return m


def _load_pair(args):
    if getattr(args, "pair_file", None):
        return pair_from_grid_descriptor(_load_json(args.pair_file, "--pair-file"))
    return pair_from_spec(args.pair)


def _load_ensemble(doc) -> Ensemble:
    try:
        weights = ProbVector(doc["weights"])
        states = tuple(DensityMatrix(_parse_complex_matrix(s)) for s in doc["states"])
    except (KeyError, TypeError):
        raise ValidationError("--ensemble expects {weights: [...], states: [matrix, ...]}") from None
    return Ensemble(weights=weights, states=states)


def _cmd_entropy(args) -> int:
    pair = _load_pair(args)
    if args.p is not None:
        p = ProbVector(_parse_floats(args.p, "--p"))
        _emit({"value": classical_entropy(pair, p)}, args.bits)
        return 0
    if args.model is None or args.state is None:
        raise ValidationError("entropy needs --p, or --model with --state")
    if not args.general:
        raise ValidationError("model entropies need --general (prints both definitions)")
    space = load_model(args.model)
    state = make_state(space, _parse_floats(args.state, "--state"))
    try:
        spectral = spectral_entropy(pair, space, state)
    except SpectrumUndefined:
        if args.strict:
            print("spectrum undefined for the given state", file=sys.stderr)
            return 3
        spectral = None
    value, frame = frame_entropy(pair, space, state)
    payload = {"frame_entropy": value,
               "spectral_entropy": spectral,
               "argmin_frame": list(frame.vertex_indices)}
    _emit(payload, args.bits)
    return 0


def _cmd_qentropy(args) -> int:
    pair = _load_pair(args)
    rho = DensityMatrix(_parse_complex_matrix(_load_json(args.rho, "--rho")))
    payload = {"value": quantum_entropy(pair, rho)}
    if args.min_search:
        value, witness = quantum_entropy_min_search(pair, rho, budget=args.budget,
                                                    seed=args.seed)
        payload["search_value"] = value
        payload["witness_outcomes"] = len(witness)
    _emit(payload, args.bits)
    return 0


def _cmd_spectrum(args) -> int:
    space = load_model(args.model)
    state = make_state(space, _parse_floats(args.state, "--state"))
    spec = generalized_spectrum(space, state)
    if isinstance(spec, NoMajorant):
        if args.strict:
            print("no majorant exists for the given state", file=sys.stderr)
            return 3
        _emit(spec.to_json(), args.bits)
        return 0
    _emit(spec.to_json(), args.bits)
    return 0


def _cmd_majorize(args) -> int:
    if args.p is not None and args.q is not None:
        p = ProbVector(_parse_floats(args.p, "--p"))
        q = ProbVector(_parse_floats(args.q, "--q"))
        _emit({"majorized": majorizes(q, p)}, args.bits)
        return 0
    if args.model is None or args.state is None or args.other is None:
        raise ValidationError("majorize needs --p/--q, or --model/--state/--other")
    space = load_model(args.model)
    first = make_state(space, _parse_floats(args.state, "--state"))
    second = make_state(space, _parse_floats(args.other, "--other"))
    try:
        result = generalized_majorizes(space, second, first)  # first < second
    except SpectrumUndefined as exc:
        if args.strict:
            print(str(exc), file=sys.stderr)
            return 3
        _emit({"majorized": None, "defined": False}, args.bits)
        return 0
    _emit({"majorized": result, "defined": True}, args.bits)
    return 0


def _cmd_frames(args) -> int:
    space = load_model(args.model)
    frames = enumerate_frames(space)
    payload = {"frames": [{"vertices": list(f.vertex_indices),
                           "effects": [list(e.coeffs) for e in f.effects]}
                          for f in frames]}
    _emit(payload, args.bits)
    return 0


def _cmd_separable(args) -> int:
    ps = ProductSpace(load_model(args.model_a), load_model(args.model_b))
    doc = _load_json(args.joint, "--joint")
    table = doc["table"] if isinstance(doc, dict) and "table" in doc else doc
    try:
        omega = JointState(np.asarray(table, float))
    except (TypeError, ValueError):
        raise ValidationError("--joint expects a table of numbers") from None
    witness = separable_witness(ps, omega)
    if witness is not None:
        payload = {"separable": True,
                   "witness": [{"a": a, "b": b, "weight": w} for (a, b), w in witness]}
    else:
        # classify_joint's verdict, without solving the witness LP again
        member = max_tensor_member(ps, omega)
        payload = {"separable": False,
                   "max_member": member,
                   "classification": "entangled" if member else "not-a-state"}
    _emit(payload, args.bits)
    return 0


def _cmd_holevo(args) -> int:
    ensemble = _load_ensemble(_load_json(args.ensemble, "--ensemble"))
    chi = holevo_chi(ensemble)
    shannon = make_preset("shannon")
    hx = classical_entropy(shannon, ensemble.weights)
    payload = {"chi": chi, "hx": hx, "strict_gap": bool(chi < hx - 1e-9)}
    if args.povm:
        effects = [_parse_complex_matrix(e) for e in _load_json(args.povm, "--povm")]
        payload["accessible"] = accessible_info_estimate(ensemble, Povm(effects))
    _emit(payload, args.bits)
    return 0


def _cmd_sweep(args) -> int:
    start, stop, count = _parse_grid(args.grid)
    p = ProbVector(_parse_floats(args.p, "--p"))
    lines = ["parameter,value"]
    for parameter in np.linspace(start, stop, count):
        value = classical_entropy(make_preset(args.family, float(parameter)), p)
        if args.bits:
            value /= LN2
        lines.append(f"{_round12(float(parameter))},{_round12(value)}")
    print("\n".join(lines))
    return 0


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"--grid expects numbers in start:stop:count, got {text!r}") from None
    if count < 1:
        raise ValidationError("--grid count must be >= 1")
    return start, stop, count


def _cmd_lp(args) -> int:
    doc = _load_json(args.file, "--file")
    try:
        cons = tuple(Constraint(tuple(c[0]), c[1], float(c[2])) for c in doc["constraints"])
        bounds = None
        if doc.get("bounds") is not None:
            bounds = tuple((None if lo is None else float(lo),
                            None if hi is None else float(hi))
                           for lo, hi in doc["bounds"])
        lp = LinearProgram(n_vars=len(doc["objective"]),
                           objective=tuple(doc["objective"]),
                           constraints=cons, bounds=bounds,
                           maximize=bool(doc.get("maximize", True)))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        raise ValidationError("--file expects {objective: [...], constraints: "
                              "[[coeffs, rel, bound], ...], bounds?, maximize?}") from None
    result = lp_solve(lp)
    _emit({"status": result.status,
           "point": None if result.point is None else list(result.point),
           "value": result.value}, bits=False)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", action="store_true",
                        help="report entropies in bits instead of nats")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches (default 0)")
    common.add_argument("--budget", type=int, default=1000,
                        help="iteration budget for randomized searches")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when a required spectrum does not exist")

    parser = argparse.ArgumentParser(prog="convexinfo",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{entropy,qentropy,spectrum,majorize,frames,separable,holevo,sweep}")

    sp = sub.add_parser("entropy", parents=[common],
                        help="classical or generalized entropies")
    sp.add_argument("--pair", default="shannon",
                    help='"shannon", "renyi:2.0" or "tsallis:0.5"')
    sp.add_argument("--pair-file", help="custom pair as a sampled-grid JSON descriptor")
    sp.add_argument("--p", help="comma-separated probabilities")
    sp.add_argument("--model", help="model JSON file")
    sp.add_argument("--state", help="comma-separated state coordinates")
    sp.add_argument("--general", action="store_true",
                    help="print frame and spectral entropies side by side")
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("qentropy", parents=[common], help="density-matrix entropies")
    sp.add_argument("--pair", default="shannon")
    sp.add_argument("--pair-file")
    sp.add_argument("--rho", required=True, help="matrix JSON ([re, im] pairs)")
    sp.add_argument("--min-search", action="store_true",
                    help="also minimize over sampled rank-one POVMs")
    sp.set_defaults(func=_cmd_qentropy)

    sp = sub.add_parser("spectrum", parents=[common], help="generalized spectrum")
    sp.add_argument("--model", required=True)
    sp.add_argument("--state", required=True)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("majorize", parents=[common],
                        help="is the first argument majorized by the second?")
    sp.add_argument("--p")
    sp.add_argument("--q")
    sp.add_argument("--model")
    sp.add_argument("--state")
    sp.add_argument("--other")
    sp.set_defaults(func=_cmd_majorize)

    sp = sub.add_parser("frames", parents=[common], help="enumerate maximal frames")
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=_cmd_frames)

    sp = sub.add_parser("separable", parents=[common], help="separability test")
    sp.add_argument("--model-a", required=True)
    sp.add_argument("--model-b", required=True)
    sp.add_argument("--joint", required=True, help="joint coefficient table JSON")
    sp.set_defaults(func=_cmd_separable)

    sp = sub.add_parser("holevo", parents=[common], help="Holevo bound of an ensemble")
    sp.add_argument("--ensemble", required=True)
    sp.add_argument("--povm", help="optional POVM JSON for accessible information")
    sp.set_defaults(func=_cmd_holevo)

    sp = sub.add_parser("sweep", parents=[common],
                        help="CSV entropy sweep over a preset parameter grid")
    sp.add_argument("--family", choices=["renyi", "tsallis"], required=True)
    sp.add_argument("--grid", required=True, help="start:stop:count")
    sp.add_argument("--p", required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("lp", parents=[common])  # debug backdoor into the LP kernel
    sp.add_argument("--file", required=True)
    sp.set_defaults(func=_cmd_lp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpectrumUndefined as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if getattr(args, "strict", False) else 2
    except ConvexInfoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
