"""Independent oracles the test suite checks the library against.

Everything here is deliberately written from scratch against closed forms
or brute force, not by calling the code paths under test: closed-form
entropy formulas, Robin Hood majorization pairs, an exact vertex
enumeration plus grid sampler for decomposition polytopes, a scipy
reference for the LP kernel, and the scalar-loop simplex and frame LPs of
the library's first release.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

# perfbench/yardstick is a frozen, never-edited copy of the library's first
# release. Its simplex and frame LPs are scalar Python loops doing the same
# floating-point arithmetic as the array code in src/, so the two must agree
# exactly; it is imported read-only as the loop reference.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import yardstick as loop_reference  # noqa: E402

# -- closed-form entropies ------------------------------------------------


def shannon_entropy(p) -> float:
    p = np.asarray(p, float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def renyi_entropy(p, alpha: float) -> float:
    p = np.asarray(p, float)
    p = p[p > 0]
    return float(np.log((p ** alpha).sum()) / (1.0 - alpha))


def tsallis_entropy(p, q: float) -> float:
    p = np.asarray(p, float)
    p = p[p > 0]
    return float(((p ** q).sum() - 1.0) / (1.0 - q))


# -- majorization test pairs ------------------------------------------------


def robin_hood_pair(rng: np.random.Generator, n: int, transfers: int = 4):
    """Return (p, q) with p majorized by q, built by mass transfers.

    Each step moves mass from a strictly larger component to a smaller one
    without crossing them, which can only make the vector more uniform.
    """
    q = rng.dirichlet(np.ones(n))
    p = q.copy()
    for _ in range(transfers):
        i, j = rng.choice(n, size=2, replace=False)
        if p[i] < p[j]:
            i, j = j, i
        if p[i] - p[j] < 1e-12:
            continue
        eps = rng.uniform(0.0, (p[i] - p[j]) / 2.0)
        p[i] -= eps
        p[j] += eps
    return p, q


def prefix_profile(p, length: int | None = None) -> np.ndarray:
    """Sorted-decreasing partial sums, zero-padded to the given length."""
    arr = np.sort(np.asarray(p, float))[::-1]
    if length is not None and len(arr) < length:
        arr = np.concatenate([arr, np.zeros(length - len(arr))])
    return np.cumsum(arr)


# -- decomposition polytope: exact vertices and grid samples ----------------


def decomposition_polytope_vertices(vertices: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Exact vertices of {p >= 0, sum_i p_i v_i = point} by basis enumeration."""
    a = np.asarray(vertices, float).T  # rows: coordinates (incl. homogeneous)
    b = np.asarray(point, float)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int((s > 1e-10).sum())
    a_r = u[:, :rank].T @ a
    b_r = u[:, :rank].T @ b
    n = a.shape[1]
    found = []
    for cols in itertools.combinations(range(n), rank):
        sub = a_r[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b_r)
        if x.min() < -1e-9:
            continue
        full = np.zeros(n)
        full[list(cols)] = np.clip(x, 0.0, None)
        if np.max(np.abs(a @ full - b)) > 1e-8:
            continue
        if not any(np.max(np.abs(full - f)) < 1e-9 for f in found):
            found.append(full)
    return np.asarray(found)


def decomposition_grid_samples(vertices: np.ndarray, point: np.ndarray,
                               step: float = 1e-2) -> np.ndarray:
    """Grid sampling of the decomposition polytope at the given step.

    The polytope is parameterized by an orthonormal null-space basis, so the
    grid step in parameter space equals the step in weight space, and the
    grid is anchored at the polytope's exact vertices (the sum of the k
    largest weights is convex, so its suprema sit there). Every returned row
    is a probability vector decomposing the point exactly (up to clipping
    noise below 1e-9).
    """
    a = np.asarray(vertices, float).T
    b = np.asarray(point, float)
    exact = decomposition_polytope_vertices(a.T, b)
    if exact.size == 0:
        raise ValueError("point is not in the polytope")
    p0 = exact.mean(axis=0)
    _, s, vt = np.linalg.svd(a)
    rank = int((s > 1e-10).sum())
    null = vt[rank:].T  # V x m, orthonormal columns
    m = null.shape[1]
    if m == 0:
        return exact[:1]
    t_coords = (exact - p0) @ null
    lo = t_coords.min(axis=0) - step
    hi = t_coords.max(axis=0) + step
    axes = [np.arange(lo[k], hi[k] + step, step) for k in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    ts = np.stack([g.reshape(-1) for g in mesh], axis=1)
    samples = p0[None, :] + ts @ null.T
    keep = (samples >= -1e-9).all(axis=1)
    samples = np.clip(samples[keep], 0.0, None)
    samples /= samples.sum(axis=1, keepdims=True)
    return np.vstack([exact, samples])


def certifies_no_majorant(samples: np.ndarray, best_candidate,
                          step: float = 1e-2, margin: float = 1e-6) -> bool:
    """Do two incomparable sample profiles jointly dominate the candidate?

    A genuine missing majorant shows up as a pair of decompositions whose
    sorted partial-sum profiles cross, with their upper envelope strictly
    above the best single candidate somewhere. Grid samples only reach the
    per-level suprema to within O(step * sqrt(V)), so the envelope is allowed
    that much slack where it must merely match the candidate.
    """
    n = samples.shape[1]
    grid_slack = 2.0 * step * np.sqrt(n)
    profiles = np.cumsum(np.sort(samples, axis=1)[:, ::-1], axis=1)
    cand = prefix_profile(best_candidate, n)
    picks = sorted({int(np.argmax(profiles[:, k])) for k in range(n)})
    for i in picks:
        for j in picks:
            if i == j:
                continue
            a, b = profiles[i], profiles[j]
            if not ((a > b + margin).any() and (b > a + margin).any()):
                continue
            envelope = np.maximum(a, b)
            if (envelope >= cand - grid_slack).all() and (envelope > cand + margin).any():
                return True
    return False


# -- LP reference ------------------------------------------------------------


def scipy_lp_reference(lp):
    """Solve a convexinfo LinearProgram with scipy's HiGHS for comparison."""
    n = lp.n_vars
    c = np.zeros(n) if lp.objective is None else np.asarray(lp.objective, float)
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = np.asarray(con.coeffs, float)
        if con.rel == "<=":
            a_ub.append(row)
            b_ub.append(con.bound)
        elif con.rel == ">=":
            a_ub.append(-row)
            b_ub.append(-con.bound)
        else:
            a_eq.append(row)
            b_eq.append(con.bound)
    bounds = lp.bounds if lp.bounds is not None else [(0, None)] * n
    res = scipy.optimize.linprog(
        c,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds, method="highs")
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    value = float(res.fun)
    if lp.maximize:
        value = -value
    return "optimal", value


# -- quantum helpers ---------------------------------------------------------


def random_density_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_povm(rng: np.random.Generator, n: int, outcomes: int) -> list[np.ndarray]:
    """Generic (not rank-one) POVM from normalized random PSD pieces."""
    pieces = []
    for _ in range(outcomes):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    return [inv_sqrt @ p @ inv_sqrt for p in pieces]


def char_poly_residual(matrix: np.ndarray, eigenvalues) -> float:
    """Max |det(M - lambda I)| over claimed eigenvalues (0 for exact ones)."""
    n = matrix.shape[0]
    return max(abs(np.linalg.det(matrix - lam * np.eye(n))) for lam in eigenvalues)
