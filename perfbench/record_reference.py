"""Write reference.json: the benchmark's fixed custom models and model-only facts.

The file holds the seeded custom polytopes (fixed for every benchmark seed),
the frames of every model whose frames an output check needs, and the
square x square no-signalling box. Frames and the box depend only on the
model, so they are recorded once from a trusted commit and committed with
the benchmark; state-dependent answers come from ``oracle.py`` instead.

Run from the repository root:  python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import convexinfo as ci  # noqa: E402

#: Seed of the custom polytopes; independent of the benchmark's --seed.
MODEL_SEED = 20150901
CUSTOM = {f"custom{d}d{n}": (d, n) for d, n in ((2, 6), (2, 8), (2, 10), (2, 12), (2, 16),
                                                 (3, 6), (3, 8), (3, 10), (3, 16))}
FRAME_MODELS = ("polygon4", "polygon5", "polygon6", "polygon8", "polygon12",
                "simplex3", "simplex4", "simplex6", "custom2d8", "custom3d6")


def custom_vertices(rng, d: int, n: int) -> list[list[float]]:
    """n points in convex position on an ellipse (d = 2) or ellipsoid (d = 3).

    Points closer than a third of the typical spacing are redrawn, which
    keeps every basis of the decomposition LPs well conditioned.
    """
    spacing = 2.0 * np.pi / n if d == 2 else np.sqrt(4.0 * np.pi / n)
    while True:
        if d == 2:
            theta = rng.uniform(0.0, 2.0 * np.pi, n)
            x = np.c_[np.cos(theta), np.sin(theta)]
        else:
            x = rng.normal(size=(n, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        dist = np.linalg.norm(x[:, None] - x[None], axis=2) + 2.0 * np.eye(n)
        if dist.min() > spacing / 3.0:
            break
    axes = (1.0, 0.7) if d == 2 else (1.0, 0.8, 0.6)
    return np.round(x * axes, 6).tolist()


def frames_doc(space) -> list[dict]:
    return [{"vertices": list(f.vertex_indices),
             "effects": [list(e.coeffs) for e in f.effects]}
            for f in ci.enumerate_frames(space)]


def main() -> None:
    rng = np.random.default_rng(MODEL_SEED)
    reference = {"source": f"convexinfo {ci.__version__}",
                 "custom": {label: custom_vertices(rng, d, n)
                            for label, (d, n) in CUSTOM.items()}}
    sys.path.insert(0, str(HERE))
    from workloads import build_model

    reference["frames"] = {label: frames_doc(build_model(label, reference))
                           for label in FRAME_MODELS}
    square = build_model("polygon4", reference)
    box = ci.pr_box(ci.ProductSpace(square, square))
    reference["pr_box_square"] = box.as_array().tolist()
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
