"""Tropical matrices: determinants, regularity, Cramer solutions.

The tropical determinant is the maximum over permutations of the
diagonal sum.  The key computational facts used here:

* the value is an assignment problem, solved exactly with a Hungarian
  method over Fractions;
* with optimal dual potentials (u, v), a permutation attains the maximum
  iff all its entries are *tight* (u_r + v_c == a_rc), so the set of
  optimal permutations is the set of perfect matchings of the tight
  graph;
* the pseudodeterminant of a same-shape matrix B over any commutative
  ring (the signed sum of diagonal products of B over exactly the
  optimal permutations) equals the ordinary determinant of B with all
  non-tight entries replaced by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .trop_core import frac

DEFAULT_DET_BOUND = 12


def as_matrix(rows):
    m = [[frac(x) for x in row] for row in rows]
    if not m or any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix must be rectangular and nonempty")
    return m


def _hungarian_max(a):
    """Max-assignment value and optimal dual potentials (u, v).

    Feasibility: u[r] + v[c] >= a[r][c] for all entries; a permutation is
    optimal iff it only uses tight entries.
    """
    n = len(a)
    cost = [[-x for x in row] for row in a]  # minimize the negation
    INF = object()
    u = [Fraction(0)] * (n + 1)
    v = [Fraction(0)] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if minv[j] is INF or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is INF or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    if minv[j] is not INF:
                        minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    value = Fraction(0)
    for j in range(1, n + 1):
        value += a[p[j] - 1][j - 1]
    uu = [-u[i] for i in range(1, n + 1)]
    vv = [-v[j] for j in range(1, n + 1)]
    return value, uu, vv


def tight_mask(a):
    """Boolean mask of entries that can appear in an optimal permutation."""
    value, u, v = _hungarian_max(a)
    n = len(a)
    mask = [[u[r] + v[c] == a[r][c] for c in range(n)] for r in range(n)]
    return value, mask


def _matching_unique(mask):
    """Whether the tight graph has exactly one perfect matching.

    Strips forced edges (degree-1 vertices); the graph has a perfect
    matching by construction, so if anything with degree >= 2 remains
    there is an alternating cycle and at least two matchings.
    """
    n = len(mask)
    row_adj = {r: {c for c in range(n) if mask[r][c]} for r in range(n)}
    col_adj = {c: {r for r in range(n) if mask[r][c]} for c in range(n)}
    queue = [("r", r) for r in row_adj if len(row_adj[r]) == 1]
    queue += [("c", c) for c in col_adj if len(col_adj[c]) == 1]
    while queue:
        kind, x = queue.pop()
        if kind == "r":
            if x not in row_adj or len(row_adj[x]) != 1:
                continue
            r, c = x, next(iter(row_adj[x]))
        else:
            if x not in col_adj or len(col_adj[x]) != 1:
                continue
            r, c = next(iter(col_adj[x])), x
        del row_adj[r]
        del col_adj[c]
        for c2 in list(col_adj):
            if r in col_adj[c2]:
                col_adj[c2].discard(r)
                if len(col_adj[c2]) == 1:
                    queue.append(("c", c2))
        for r2 in list(row_adj):
            if c in row_adj[r2]:
                row_adj[r2].discard(c)
                if len(row_adj[r2]) == 1:
                    queue.append(("r", r2))
    return not row_adj


def _enumerate_matchings(mask):
    """All perfect matchings of the tight graph, as row->col tuples."""
    n = len(mask)
    cols_of = [frozenset(c for c in range(n) if mask[r][c]) for r in range(n)]
    out = []
    perm = [-1] * n
    used = set()

    def rec(remaining):
        if not remaining:
            out.append(tuple(perm))
            return
        # fail-first: the row with fewest free columns
        r = min(remaining, key=lambda rr: len(cols_of[rr] - used))
        for c in sorted(cols_of[r] - used):
            perm[r] = c
            used.add(c)
            rec(remaining - {r})
            used.discard(c)
            perm[r] = -1

    rec(frozenset(range(n)))
    return sorted(out)


@dataclass
class DetResult:
    value: Fraction
    optimal_perms: list
    regular: bool


def trop_det(rows, bound: int = DEFAULT_DET_BOUND) -> DetResult:
    a = as_matrix(rows)
    n = len(a)
    if len(a[0]) != n:
        raise ValueError("tropical determinant needs a square matrix")
    if n > bound:
        raise ValueError(f"matrix size {n} exceeds the configured bound {bound}")
    value, mask = tight_mask(a)
    perms = _enumerate_matchings(mask)
    return DetResult(value=value, optimal_perms=perms, regular=len(perms) == 1)


def trop_det_value_regular(a):
    """Fast path: value and regularity without enumerating permutations."""
    value, mask = tight_mask(a)
    return value, _matching_unique(mask)


def masked_det(n, entry, zero):
    """Determinant over a commutative ring with masked-off entries.

    ``entry(r, c)`` returns a ring element or None for excluded cells;
    ``zero`` is the ring's additive identity.  Laplace expansion along
    rows, memoized on the set of free columns.
    """
    memo = {}

    def rec(r, mask):
        if r == n - 1:
            c = mask.bit_length() - 1
            e = entry(r, c)
            return e if e is not None else zero
        key = mask
        if key in memo:
            return memo[key]
        total = zero
        sign = 1
        m = mask
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            e = entry(r, c)
            if e is not None:
                sub = rec(r + 1, mask ^ low)
                term = e * sub
                total = total + term if sign > 0 else total + (-term)
            sign = -sign
        memo[key] = total
        return total

    return rec(0, (1 << n) - 1)


def pseudodet(a_rows, b_rows, zero=Fraction(0)):
    """Signed sum of diagonal products of B over the permutations that
    attain the tropical determinant of A."""
    a = as_matrix(a_rows)
    n = len(a)
    if len(a[0]) != n:
        raise ValueError("pseudodeterminant needs square matrices")
    b = list(b_rows)
    if len(b) != n or any(len(r) != n for r in b):
        raise ValueError("weight and coefficient matrices must have equal shape")
    _, mask = tight_mask(a)
    return masked_det(n, lambda r, c: b[r][c] if mask[r][c] else None, zero)


def _delete_col(rows, i):
    return [r[:i] + r[i + 1 :] for r in rows]


@dataclass
class CramerSolution:
    """Projective tuple [|A^1|_t : ... : |A^{n+1}|_t] with regularity flags."""

    values: tuple
    regular: tuple

    def normalized(self):
        c = self.values[0]
        return tuple(v - c for v in self.values)


def cramer_stable(a_rows) -> CramerSolution:
    a = as_matrix(a_rows)
    n = len(a)
    if len(a[0]) != n + 1:
        raise ValueError("stable Cramer solution needs an n x (n+1) matrix")
    values, flags = [], []
    for i in range(n + 1):
        v, reg = trop_det_value_regular(_delete_col(a, i))
        values.append(v)
        flags.append(reg)
    return CramerSolution(values=tuple(values), regular=tuple(flags))


def cramer_conditions(a_rows, b_rows, zero=Fraction(0)):
    """The vector Cram_A(B): one pseudodeterminant per deleted column.

    Nonvanishing of every entry is the residual sufficient condition for
    the algebraic solution to project onto the stable tropical one.
    """
    a = as_matrix(a_rows)
    n = len(a)
    if len(a[0]) != n + 1:
        raise ValueError("cramer_conditions needs an n x (n+1) matrix")
    b = list(b_rows)
    out = []
    for i in range(n + 1):
        out.append((i, pseudodet(_delete_col(a, i), _delete_col(b, i), zero)))
    return out


def cramer_signed_solution(a_rows, b_rows, zero=Fraction(0)):
    """Cofactor-signed solution vector of the homogeneous system B.

    Entry k is (-1)^k det(B^k) restricted to the optimal permutations of
    the tropical minor A^k; this is a genuine solution of the residual
    linear system whenever no entry vanishes.
    """
    conds = cramer_conditions(a_rows, b_rows, zero)
    out = []
    for k, d in conds:
        out.append(d if k % 2 == 0 else -d)
    return out
