"""From-scratch rectangular assignment solver (Hungarian method family).

Phase I of WOLT (Theorem 2) maps the relaxed Problem 1 onto a linear
assignment problem: pick exactly one user per extender so that the sum of
task utilities ``u_ij = min(c_j/|A|, r_ij)`` is maximized.  The paper
solves it with the Hungarian algorithm in ``O(|A|^3)``.

This module implements the shortest-augmenting-path variant of the
Hungarian method (Jonker-Volgenant style) for *rectangular* cost matrices
as a scalar loop (Phase-I matrices are small), without scipy — although
the test-suite cross-checks the two on random instances.

The solver minimizes cost; :func:`solve_assignment` maximizes utility
(Phase I's orientation) by negating it, and understands forbidden pairs
(``-inf`` utility).  A caller that wants a minimum passes negated costs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["solve_assignment", "InfeasibleAssignmentError"]


class InfeasibleAssignmentError(ValueError):
    """Raised when no complete matching avoids forbidden pairs."""


def solve_assignment(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the rectangular linear assignment problem (maximum utility).

    Every column (task) of the smaller dimension is matched to a distinct
    row (agent); with an ``n x m`` matrix, ``min(n, m)`` pairs are
    produced.

    Args:
        weights: 2-D matrix of utilities.  ``-inf`` marks a forbidden
            pair; NaN is rejected.

    Returns:
        ``(rows, cols)`` index arrays of the matched pairs, sorted by
        column when the matrix is tall (more rows than columns) and by row
        otherwise — mirroring scipy's convention of sorting by the first
        axis of the *untransposed* problem.

    Raises:
        InfeasibleAssignmentError: if no complete matching exists.
        ValueError: on NaN entries or empty input.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("weights must be a non-empty 2-D matrix")
    cost = -w
    lowest, highest = float(cost.min()), float(cost.max())
    if lowest != lowest:  # min() propagates NaN
        raise ValueError("weights must not contain NaN")
    if lowest == -np.inf:
        raise ValueError("utilities must not be +inf")

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    forbidden = None
    if highest == np.inf:
        forbidden = cost == np.inf
        finite = cost[~forbidden]
        if finite.size == 0:
            raise InfeasibleAssignmentError("all pairs are forbidden")
        # Replace forbidden entries by a cost so large they are never
        # chosen unless unavoidable (detected afterwards).
        span = float(finite.max() - finite.min()) + 1.0
        big = float(finite.max()) + span * (max(cost.shape) + 1)
        cost = np.where(forbidden, big, cost)

    row4col, col4row = _shortest_path_assignment(cost.tolist())
    rows = np.arange(len(col4row))
    cols = np.array(col4row)
    if forbidden is not None and forbidden[rows, cols].any():
        raise InfeasibleAssignmentError(
            "no complete matching avoids the forbidden pairs")
    if transposed:
        matched = [j for j, i in enumerate(row4col) if i != -1]
        return np.array(matched), np.array([row4col[j] for j in matched])
    return rows, cols


def _shortest_path_assignment(cost: List[List[float]]
                              ) -> Tuple[List[int], List[int]]:
    """Jonker-Volgenant successive shortest augmenting paths.

    Expects ``n_rows <= n_cols``; matches every row.  Returns
    ``(row4col, col4row)`` where ``row4col[j]`` is the row matched to
    column ``j`` (or -1) and ``col4row[i]`` the column matched to row
    ``i``.  Each path step relaxes the open columns in ascending order
    and extends to the first column of least reduced distance (strict
    ``<``), so ties go to the lowest column index.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    u = [0.0] * n_rows  # row duals
    v = [0.0] * n_cols  # column duals
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols

    for cur_row in range(n_rows):
        shortest = [np.inf] * n_cols
        pred_row = [-1] * n_cols
        open_cols = list(range(n_cols))
        scanned_rows: List[int] = []
        scanned_cols: List[int] = []
        lowest = 0.0
        i = cur_row
        while True:
            scanned_rows.append(i)
            row, u_i = cost[i], u[i]
            sink, best = -1, np.inf
            for j in open_cols:
                slack = lowest + row[j] - u_i - v[j]
                if slack < shortest[j]:
                    shortest[j] = slack
                    pred_row[j] = i
                if shortest[j] < best:
                    sink, best = j, shortest[j]
            if sink == -1:  # pragma: no cover - guarded by `big`
                raise InfeasibleAssignmentError("matching cannot be extended")
            lowest = best
            open_cols.remove(sink)
            scanned_cols.append(sink)
            if row4col[sink] == -1:
                break
            i = row4col[sink]
        # Dual updates keep reduced costs non-negative.
        u[cur_row] += lowest
        for i2 in scanned_rows[1:]:
            u[i2] += lowest - shortest[col4row[i2]]
        for j in scanned_cols:
            v[j] -= lowest - shortest[j]
        # Augment along the alternating path back to cur_row.
        j = sink
        while True:
            i2 = pred_row[j]
            row4col[j] = i2
            col4row[i2], j = j, col4row[i2]
            if i2 == cur_row:
                break
    return row4col, col4row
