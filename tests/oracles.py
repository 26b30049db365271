"""Independent oracles the test suite checks the library against.

Everything here is deliberately written from scratch against closed forms
or brute force, not by calling the code paths under test: closed-form
entropy formulas, Robin Hood majorization pairs, an exact vertex
enumeration plus grid sampler for decomposition polytopes, a scipy
reference for the LP kernel, for frame enumeration and for facets, and the
scalar-loop simplex and frame LPs of the library's first release.
"""

from __future__ import annotations

import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.spatial

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


def highs_distinguishable(vertices: np.ndarray, combo) -> bool:
    """Is the k x d witness LP of the vertex set ``combo`` feasible, by HiGHS?

    One effect per vertex of the set, each in [0, 1] on every vertex, summing
    to the unit functional, effect i equal to 1 on vertex i and 0 on the
    others. ``vertices`` is V x d with the homogeneous 1 last.
    """
    verts = np.asarray(vertices, float)
    v, d = verts.shape
    k = len(combo)
    cells = np.kron(np.eye(k), verts)
    a_eq = np.vstack([np.tile(np.eye(d), k), np.kron(np.eye(k), verts[list(combo)])])
    b_eq = np.concatenate([np.eye(d)[-1], np.eye(k).ravel()])
    res = scipy.optimize.linprog(
        np.zeros(k * d), A_ub=np.vstack([cells, -cells]),
        b_ub=np.concatenate([np.ones(k * v), np.zeros(k * v)]),
        A_eq=a_eq, b_eq=b_eq, bounds=(None, None), method="highs")
    return res.status == 0


def highs_spans(vertices: np.ndarray, combo) -> bool:
    """Does the barycenter of ``combo`` admit a decomposition with every weight above 1e-9?"""
    verts = np.asarray(vertices, float)
    v, d = verts.shape
    # maximize t subject to w >= t, w >= 0, sum_i w_i v_i = barycenter
    res = scipy.optimize.linprog(
        -np.eye(v + 1)[-1], A_ub=np.hstack([-np.eye(v), np.ones((v, 1))]),
        b_ub=np.zeros(v), A_eq=np.hstack([verts.T, np.zeros((d, 1))]),
        b_eq=verts[list(combo)].mean(axis=0),
        bounds=[(0, None)] * v + [(None, None)], method="highs")
    return res.status == 0 and -res.fun > 1e-9


def qhull_facet_masks(points: np.ndarray, tol: float = 1e-9) -> set[int]:
    """The facets of the hull of full-dimensional ``points`` (V x n, no homogeneous
    1), each the bit mask of the points within ``tol`` of its hyperplane.

    qhull triangulates a facet that holds more than n points into simplices
    with one hyperplane each; reading every point's distance to it merges
    them back into one vertex set.
    """
    hull = scipy.spatial.ConvexHull(points)
    distance = np.abs(hull.equations[:, :-1] @ points.T + hull.equations[:, -1:])
    return set(((distance <= tol) @ (1 << np.arange(len(points)))).tolist())


@functools.lru_cache(maxsize=8)
def _qhull_facet_functionals(vertex_bytes: bytes, d: int) -> np.ndarray:
    """Per facet of qhull's hull of the vertices (V x d, the homogeneous 1 last,
    as bytes), the functional that vanishes on it, 1 at its farthest vertex.

    qhull works in a chart of the vertices' affine hull, and each functional
    spans the null space of the facet's vertices."""
    verts = np.frombuffer(vertex_bytes).reshape(-1, d)
    centred = verts[:, :-1] - verts[:, :-1].mean(axis=0)
    _, singular, vt = np.linalg.svd(centred)
    chart = centred @ vt[:int((singular > 1e-9 * singular[0]).sum())].T
    functionals = []
    for mask in sorted(qhull_facet_masks(chart)):
        normal = np.linalg.svd(verts[(mask >> np.arange(len(verts)) & 1).astype(bool)])[2][-1]
        values = verts @ normal
        functionals.append(normal / values[np.abs(values).argmax()])
    return np.array(functionals)


def highs_facet_cone(vertices: np.ndarray, points: np.ndarray) -> bool:
    """Is the unit functional in the cone of the facets through all points but
    one, by qhull and HiGHS?

    ``vertices`` is V x d with the homogeneous 1 last, and ``points`` (k x d)
    are states of their hull, pure or mixed. A point lies on a facet of
    qhull's when the facet's functional is within 1e-9 of 0 there. F_i holds
    the facets through every point but point i. The points are perfectly
    distinguishable exactly when some x >= 0 over the facets of
    F_1 ∪ … ∪ F_k sums their functionals' values to 1 on every vertex.
    """
    verts = np.asarray(vertices, float)
    functionals = _qhull_facet_functionals(verts.tobytes(), verts.shape[1])
    held = np.abs(np.asarray(points, float) @ functionals.T) <= 1e-9
    union = held.sum(axis=0) >= len(held) - 1
    if not union.any():
        return False
    res = scipy.optimize.linprog(np.zeros(union.sum()), A_eq=verts @ functionals[union].T,
                                 b_eq=np.ones(len(verts)), bounds=(0, None), method="highs")
    return res.status == 0


def highs_frames(vertices: np.ndarray) -> list[tuple[int, ...]]:
    """Frames of a polytope model, bottom-up, every LP solved by scipy's HiGHS.

    ``vertices`` is V x d with the homogeneous 1 last. A set is tested with
    ``highs_distinguishable`` once all its one-smaller subsets passed. Frames
    are the maximal distinguishable sets that pass ``highs_spans``.
    """
    verts = np.asarray(vertices, float)
    v = len(verts)
    passed = {frozenset([i]) for i in range(v)}
    for size in range(2, v + 1):
        level = [frozenset(c) for c in itertools.combinations(range(v), size)
                 if all(frozenset(c[:i] + c[i + 1:]) in passed for i in range(size))
                 and highs_distinguishable(verts, c)]
        if not level:
            break
        passed.update(level)
    maximal = sorted(tuple(sorted(s)) for s in passed if not any(s < o for o in passed))
    return [c for c in maximal if highs_spans(verts, c)]


def random_custom_vertex_sets(seed: int = 12345, count: int = 40):
    """(t, points) for the seeded sweep of random custom polytopes.

    Point set t has 5-12 points in R^2-R^5, normal coordinates rounded to
    3 decimals; some sets do not affinely span their space.
    """
    rng = np.random.default_rng(seed)
    for t in range(count):
        n_points, dim = rng.integers(5, 13), rng.integers(2, 6)
        yield t, rng.normal(size=(n_points, dim)).round(3)


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


def random_isometry_rows(rng: np.random.Generator, n: int, outcomes: int) -> np.ndarray:
    """Rows r_i of an outcomes x n isometry from the QR of a complex Gaussian
    matrix; the effects |r_i*><r_i*| form a rank-one POVM with that many outcomes."""
    g = rng.normal(size=(outcomes, n)) + 1j * rng.normal(size=(outcomes, n))
    q, _ = np.linalg.qr(g)
    return q


def char_poly_residual(matrix: np.ndarray, eigenvalues) -> float:
    """Max |det(M - lambda I)| over claimed eigenvalues (0 for exact ones)."""
    n = matrix.shape[0]
    return max(abs(np.linalg.det(matrix - lam * np.eye(n))) for lam in eigenvalues)
