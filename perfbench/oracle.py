"""Independent reference answers for the benchmark's output checks.

Everything here is written from closed forms and brute-force enumeration in
numpy and never calls convexinfo, so a change to the library cannot move its
own referee. The only library convention copied is that distribution
components below 1e-9 count as exact zeros (``ZERO``), which is how the
library defines its entropies.
"""

from __future__ import annotations

import itertools

import numpy as np

ZERO = 1e-9

#: A state's spectrum verdict is clear when the best decomposition vertex
#: meets every level supremum to within SPECTRUM_TOL (majorant exists) or
#: misses them by at least NO_MAJORANT_MARGIN in total (no majorant).
#: States in between are ambiguous at double precision and never generated.
SPECTRUM_TOL = 1e-10
NO_MAJORANT_MARGIN = 1e-6


def parse_pair(spec: str) -> tuple[str, float | None]:
    """'shannon', 'renyi:2.0' or 'tsallis:0.5' as (family, parameter)."""
    head, _, tail = spec.partition(":")
    return head, (float(tail) if tail else None)


def entropy(spec: str, p) -> float:
    """Closed-form Shannon, Renyi or Tsallis entropy in nats."""
    family, a = parse_pair(spec)
    p = np.asarray(p, float)
    p = p[p >= ZERO]
    if family == "shannon":
        return float(-(p * np.log(p)).sum())
    s = float((p ** a).sum())
    if family == "renyi":
        return float(np.log(s) / (1.0 - a))
    if family == "tsallis":
        return float((s - 1.0) / (1.0 - a))
    raise ValueError(f"unknown pair {spec!r}")


def prefix_profile(p, length: int) -> np.ndarray:
    """Sorted-decreasing partial sums of p, zero-padded to ``length``."""
    arr = np.zeros(length)
    srt = np.sort(np.asarray(p, float))[::-1]
    arr[:len(srt)] = srt
    return np.cumsum(arr)


# -- decomposition polytope ---------------------------------------------------


def decomposition_vertices(vertices: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Vertices of {w >= 0 : sum_i w_i v_i = point}, one per row.

    Every basic solution of the rank-reduced system is solved in one batched
    ``np.linalg.solve``; at the 16-vertex cap in R^3 that is C(16, 4) = 1820
    small systems.
    """
    a = np.asarray(vertices, float).T  # rows: coordinates incl. the homogeneous 1
    b = np.asarray(point, float)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int((s > 1e-10 * s[0]).sum())
    a_r = u[:, :rank].T @ a
    b_r = u[:, :rank].T @ b
    n = a.shape[1]
    bases = np.array(list(itertools.combinations(range(n), rank)))
    sub = np.transpose(a_r[:, bases], (1, 0, 2))
    regular = np.abs(np.linalg.det(sub)) > 1e-12
    bases, sub = bases[regular], sub[regular]
    x = np.linalg.solve(sub, np.broadcast_to(b_r, (len(sub), rank))[..., None])[..., 0]
    feasible = x.min(axis=1) >= -1e-9
    w = np.zeros((int(feasible.sum()), n))
    w[np.arange(len(w))[:, None], bases[feasible]] = np.clip(x[feasible], 0.0, None)
    return w[np.abs(w @ a.T - b).max(axis=1) <= 1e-8]


class SpectrumReference:
    """Level suprema T_k and the majorant (if any) of a state's decompositions.

    The sum of the k largest weights is convex, so each T_k is attained at a
    vertex of the decomposition polytope, and a majorant exists iff one
    vertex attains all of them at once.
    """

    def __init__(self, vertices: np.ndarray, point: np.ndarray):
        w = decomposition_vertices(vertices, point)
        if len(w) == 0:
            raise ValueError("point is not in the polytope")
        n = w.shape[1]
        profiles = np.cumsum(-np.sort(-w, axis=1), axis=1)
        self.tk = profiles.max(axis=0)
        shortfall = (self.tk - profiles).sum(axis=1)
        best = int(np.argmin(shortfall))
        self.margin = float(shortfall[best])
        self.exists = self.margin <= SPECTRUM_TOL
        self.weights = np.sort(w[best])[::-1] if self.exists else None
        self.n = n

    @property
    def clear(self) -> bool:
        return self.exists or self.margin >= NO_MAJORANT_MARGIN


# -- frames and product effects -------------------------------------------------


def restriction(effects: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Outcome distribution of a frame measurement on a state."""
    values = np.asarray(effects, float) @ np.asarray(point, float)
    return np.maximum(values, 0.0) / values.sum()


def frame_entropies(spec: str, frames: list[dict], point: np.ndarray) -> list[float]:
    """Entropy of the state's restriction to each recorded frame."""
    return [entropy(spec, restriction(f["effects"], point)) for f in frames]


def product_value_range(effects_a: np.ndarray, effects_b: np.ndarray,
                        table: np.ndarray) -> tuple[float, float]:
    """Min and max of e_a^T W e_b over all pairs of the given effects."""
    values = np.asarray(effects_a) @ np.asarray(table) @ np.asarray(effects_b).T
    return float(values.min()), float(values.max())


def chsh_functional(frames_a: list[dict], frames_b: list[dict]) -> np.ndarray:
    """Coefficient tensor L with L . W = sum_{x,y} P(a xor b = x and y | x, y).

    Frames x = 0, 1 of each square factor supply the two measurements.
    """
    da = len(frames_a[0]["effects"][0])
    db = len(frames_b[0]["effects"][0])
    coeff = np.zeros((da, db))
    for x in range(2):
        for y in range(2):
            for a, ea in enumerate(frames_a[x]["effects"]):
                for b, eb in enumerate(frames_b[y]["effects"]):
                    if (a ^ b) == (x & y):
                        coeff += np.outer(ea, eb)
    return coeff


# -- quantum --------------------------------------------------------------------


def eigen_distribution(m: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvalsh(m)[::-1]
    ev = np.where(ev > 0.0, ev, 0.0)
    return ev / ev.sum()


def born_distribution(rho: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Born statistics of the rank-one effects |r_i*><r_i*| built from rows."""
    probs = np.einsum("ia,ab,ib->i", rows, rho, rows.conj()).real
    probs = np.where(probs > 0.0, probs, 0.0)
    return probs / probs.sum()


def holevo_chi(weights, states) -> float:
    avg = sum(w * s for w, s in zip(weights, states))
    mixed = entropy("shannon", eigen_distribution(avg))
    return mixed - sum(w * entropy("shannon", eigen_distribution(s))
                       for w, s in zip(weights, states))


def mutual_information(joint: np.ndarray) -> float:
    joint = np.asarray(joint, float)
    joint = joint / joint.sum()
    return (entropy("shannon", joint.sum(axis=1)) + entropy("shannon", joint.sum(axis=0))
            - entropy("shannon", joint.reshape(-1)))


def accessible_information(weights, states, effects) -> float:
    joint = np.array([[w * max(0.0, float(np.trace(s @ e).real)) for e in effects]
                      for w, s in zip(weights, states)])
    return mutual_information(joint)
