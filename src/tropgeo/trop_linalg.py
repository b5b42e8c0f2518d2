"""Tropical matrices: determinants, regularity, Cramer solutions.

The tropical determinant is the maximum over permutations of the
diagonal sum.  The key computational facts used here:

* the value is an assignment problem.  A matrix is scaled once by the
  lcm of its entries' denominators and a Hungarian method solves it on
  Python ints; values and potentials become Fractions again only at
  the module's boundary;
* with dual potentials (u, v) that are feasible (u_r + v_c >= a_rc)
  and admit a tight perfect matching, a permutation attains the
  maximum iff all its entries are *tight* (u_r + v_c == a_rc), so the
  set of optimal permutations is the set of perfect matchings of the
  tight graph;
* all n+1 maximal minors of an n x (n+1) matrix come from one
  assignment of the matrix with a zero row appended, plus one
  shortest-path pass on its reduced costs.  The shifted potentials are
  one optimal dual for every minor at once, so each minor's optimal
  permutations are the perfect matchings of one common tight graph
  with that minor's column deleted.  Whether a minor is regular (has
  one optimal permutation) is a peel of that graph, which a
  ``CramerSolution`` runs only when its flags are first read;
* the 2 x 3 systems, every line through two points and every meet of
  two lines, skip the assignment: each of the three minors is the
  larger of two sums, and the sums attaining them make up the same
  common tight graph (``cramer_stable``).  The assignment path stays
  for every other size and is the tests' reference for this one;
* the pseudodeterminant of a same-shape matrix B over any commutative
  ring (the signed sum of diagonal products of B over exactly the
  optimal permutations) equals the ordinary determinant of B with all
  non-tight entries excluded; the n+1 maximal minors read B on their
  common tight graph.  ``masked_det`` and ``masked_minors`` are the
  package's one determinant on a tight graph, given as rows
  {column: entry}: pseudodeterminants, Cramer minors of a curve step
  and resultant corner coefficients all call them with the zero of the
  caller's ring, which alone picks the method.  When that zero lies in
  F_p, ``masked_det`` is Gaussian elimination on ints
  (``residual.fp_det``); over any other ring it is the memoized masked
  Laplace expansion, which ``masked_minors`` shares among all n+1
  minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .trop_core import frac, scaled_ints
from .residual import FpElt, fp_det

# trop_det enumerates every optimal permutation, up to n! of them
DET_BOUND = 12


def as_matrix(rows):
    m = [[frac(x) for x in row] for row in rows]
    if not m or any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix must be rectangular and nonempty")
    return m


def _scaled(a):
    """(d, w): the lcm d of the entries' denominators and the int matrix d*a."""
    flat, d = scaled_ints([x for row in a for x in row])
    it = iter(flat)
    return d, [[next(it) for _ in row] for row in a]


def _hungarian_max(w):
    """Max-weight assignment of the square int matrix w.

    Returns (value, u, v, col): the row r -> col[r] assignment of weight
    ``value`` and dual potentials with u[r] + v[c] >= w[r][c] everywhere,
    equality on the assignment, and sum(u) + sum(v) == value.
    """
    n = len(w)
    # minimizes -w; index 0 is a virtual row/column, p[j] the row of column j
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    cols = range(1, n + 1)
    for i in cols:
        p[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = w[i0 - 1]
            ui = u[i0]
            delta = None
            j1 = 0
            for j in cols:
                if not used[j]:
                    cur = -row[j - 1] - ui - v[j]
                    m = minv[j]
                    if m is None or cur < m:
                        minv[j] = m = cur
                        way[j] = j0
                    if delta is None or m < delta:
                        delta = m
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col = [0] * n
    for j in cols:
        col[p[j] - 1] = j - 1
    value = sum(w[r][col[r]] for r in range(n))
    return value, [-x for x in u[1:]], [-x for x in v[1:]], col


def tight_graph(a):
    """(value, adj): the tropical determinant of a and its tight graph,
    ``adj[r]`` the set of columns c whose entry (r, c) can appear in an
    optimal permutation."""
    d, w = _scaled(a)
    value, u, v, _ = _hungarian_max(w)
    n = len(w)
    return Fraction(value, d), [{c for c in range(n) if u[r] + v[c] == w[r][c]} for r in range(n)]


def _matching_unique(adj):
    """Whether a bipartite graph with a perfect matching has exactly one.

    ``adj[r]`` is the set of columns adjacent to row r.  A column of
    degree 1 forces its edge; peel such columns in O(edges).  With a
    unique matching M there is no alternating cycle, so the digraph with
    an arc M(r) -> c for every other edge (r, c) is acyclic and its
    sources, columns of degree 1, peel every row.  With two matchings
    their alternating cycle is never peeled.
    """
    col_adj = {}
    for r, cs in enumerate(adj):
        for c in cs:
            col_adj.setdefault(c, set()).add(r)
    stack = [c for c, rs in col_adj.items() if len(rs) == 1]
    peeled = 0
    while stack:
        c = stack.pop()
        if len(col_adj[c]) != 1:
            continue
        r = col_adj[c].pop()
        peeled += 1
        for c2 in adj[r]:
            if c2 != c:
                col_adj[c2].discard(r)
                if len(col_adj[c2]) == 1:
                    stack.append(c2)
    return peeled == len(adj)


def _enumerate_matchings(adj):
    """All perfect matchings of a bipartite graph, as row->col tuples;
    ``adj[r]`` iterates the columns adjacent to row r."""
    n = len(adj)
    cols_of = [frozenset(cs) for cs in adj]
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


def trop_det(rows) -> DetResult:
    a = as_matrix(rows)
    n = len(a)
    if len(a[0]) != n:
        raise ValueError("tropical determinant needs a square matrix")
    if n > DET_BOUND:
        raise ValueError(f"matrix size {n} exceeds the bound {DET_BOUND}")
    value, adj = tight_graph(a)
    perms = _enumerate_matchings(adj)
    return DetResult(value=value, optimal_perms=perms, regular=len(perms) == 1)


def _laplace(rows, zero):
    """``det(mask)``: the determinant of the rows on the columns in the bit
    set ``mask``, over a commutative ring; row r is rows[r] =
    {column: entry}, and a cell outside it is never multiplied.  Row r
    expands over the columns rows 0..r-1 left free, so one memo keyed on
    that mask serves every column subset."""
    n = len(rows)
    memo = {}

    def det(mask, r=0):
        if r == n - 1:
            return rows[r].get(mask.bit_length() - 1, zero)
        if mask in memo:
            return memo[mask]
        row = rows[r]
        total = zero
        sign = 1
        m = mask
        while m:
            low = m & -m
            m ^= low
            e = row.get(low.bit_length() - 1)
            if e is not None:
                term = e * det(mask ^ low, r + 1)
                total = total + term if sign > 0 else total + (-term)
            sign = -sign
        memo[mask] = total
        return total

    return det


def masked_det(rows, zero):
    """Determinant of the square matrix whose row r is rows[r] =
    {column: entry}, empty elsewhere; ``zero`` is the ring's additive
    identity, and the value when a row has no entry.  Over F_p (zero an
    ``FpElt``) the entries are eliminated on ints, over any other ring
    expanded."""
    if not all(rows):
        return zero
    if isinstance(zero, FpElt):
        p = zero.p
        return FpElt(fp_det([[row[c].v if c in row else 0 for c in range(len(rows))] for row in rows], p), p)
    return _laplace(rows, zero)((1 << len(rows)) - 1)


def masked_minors(rows, zero):
    """The n+1 maximal minors of the n x (n+1) matrix with rows rows[r] =
    {column: entry}, minor k deleting column k, from one shared
    expansion memo."""
    det = _laplace(rows, zero)
    full = (1 << (len(rows) + 1)) - 1
    return [det(full ^ (1 << k)) for k in range(len(rows) + 1)]


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
    _, adj = tight_graph(a)
    return masked_det([{c: row[c] for c in cs} for row, cs in zip(b, adj)], zero)


@dataclass
class CramerSolution:
    """Projective tuple [|A^1|_t : ... : |A^{n+1}|_t] and the common tight
    graph ``tight`` (row -> columns): minor k's optimal permutations are
    its perfect matchings without column k."""

    values: tuple
    tight: tuple

    @cached_property
    def regular(self):
        """Whether each minor has one optimal permutation: one
        ``_matching_unique`` peel per deleted column, run on first read."""
        return tuple(_matching_unique([cs - {k} for cs in self.tight])
                     for k in range(len(self.tight) + 1))


def cramer_stable(a_rows) -> CramerSolution:
    """All n+1 maximal minors of an n x (n+1) matrix and their tight graph.

    One assignment of the matrix with a zero row appended gives the
    largest minor |A^k0|, k0 being the column the zero row takes.  With
    reduced costs red = u_r + v_c - w_rc >= 0, dist[r] is the cheapest
    alternating path from row r to column k0, and forcing the zero row
    onto column k costs red(zero row, k) + dist[row holding k].  The
    potentials u - dist, v + dist are an optimal dual of every minor.

    A 2 x 3 matrix, a line through two points or the coefficient rows of
    two lines, is decided in closed form instead: minor k is the larger
    of its two diagonal sums, and the tight graph is the union of the
    sums that attain the three minors.  That union is the tight graph of
    any common optimal dual.  Such a dual makes every optimal matching
    tight.  Conversely, if (0, c) is tight, minor c has a tight optimal
    matching, whose row 1 edge (1, j) has j != c; then (0, c), (1, j) is
    a tight perfect matching of the third minor, so it is optimal there.
    The same holds for row 1.
    """
    a = as_matrix(a_rows)
    if len(a[0]) != len(a) + 1:
        raise ValueError("stable Cramer solution needs an n x (n+1) matrix")
    d, w = _scaled(a)
    return _cramer(w, d)


def _cramer(w, d) -> CramerSolution:
    """``cramer_stable`` of the matrix w/d, for an n x (n+1) int matrix
    w, left unchanged, and an int d > 0.  For n = 2 each minor k is a
    max of two sums, s over the matching (0, i), (1, j) of its other
    columns i < j and t over (0, j), (1, i); its optimal matchings are
    the sums attaining it, and the tight graph is their union."""
    if len(w) != 2:
        return _cramer_assignment(w, d)
    w0, w1 = w
    values, tight = [], (set(), set())
    for i, j in ((1, 2), (0, 2), (0, 1)):
        s, t = w0[i] + w1[j], w0[j] + w1[i]
        values.append(Fraction(max(s, t), d))
        if s >= t:
            tight[0].add(i)
            tight[1].add(j)
        if t >= s:
            tight[0].add(j)
            tight[1].add(i)
    return CramerSolution(values=tuple(values), tight=tight)


def _cramer_assignment(w, d) -> CramerSolution:
    """``_cramer`` by one assignment and one shortest-path pass (see
    ``cramer_stable``), for every n; the reference of the n = 2 closed
    form."""
    n = len(w)
    w = w + [[0] * (n + 1)]
    value, u, v, col = _hungarian_max(w)
    k0 = col[n]
    # dense Dijkstra toward column k0: settle the nearest row, then relax
    # every row through the column it holds
    dist = [None] * n
    done = [False] * n
    c, dc = k0, 0
    for _ in range(n):
        best = None
        vc = v[c] + dc
        for r in range(n):
            if not done[r]:
                cand = u[r] + vc - w[r][c]
                if dist[r] is None or cand < dist[r]:
                    dist[r] = cand
                if best is None or dist[r] < dist[best]:
                    best = r
        done[best] = True
        c, dc = col[best], dist[best]
    shift = [0] * (n + 1)  # dist of the row holding each column, 0 at k0
    for r in range(n):
        shift[col[r]] = dist[r]
    values = [Fraction(value - u[n] - v[k] - shift[k], d) for k in range(n + 1)]
    tight = [{c for c in range(n + 1) if u[r] - dist[r] + v[c] + shift[c] == w[r][c]}
             for r in range(n)]
    return CramerSolution(values=tuple(values), tight=tuple(tight))


def cramer_conditions(a_rows, b_rows, zero=Fraction(0)):
    """The vector Cram_A(B): one pseudodeterminant per deleted column.

    Nonvanishing of every entry is the residual sufficient condition for
    the algebraic solution to project onto the stable tropical one.
    """
    tight = cramer_stable(a_rows).tight
    n = len(tight)
    b = list(b_rows)
    if len(b) != n or any(len(r) != n + 1 for r in b):
        raise ValueError("weight and coefficient matrices must have equal shape")
    minors = masked_minors([{c: row[c] for c in cs} for row, cs in zip(b, tight)], zero)
    return list(enumerate(minors))

