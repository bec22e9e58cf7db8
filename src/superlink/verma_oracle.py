"""Brute-force highest-weight machinery for small reductive data.

Ground truth for Verma composition multiplicities, computed without any
Kazhdan-Lusztig input:

1. realize the datum's Lie algebra by explicit matrices (gl blocks for
   type A factors, sp blocks for type C) and read all structure constants
   off exact matrix brackets, once per datum (see _Frame);
2. realize Verma-module weight spaces as PBW monomials in the negative
   root vectors, found by a search on integer root-lattice coordinates,
   and straighten products recursively;
3. the weight multiplicities of a simple module are the ranks of the
   contravariant (transpose) form's Gram matrices on the Verma weight
   spaces, an exact rational rank computation;
4. composition multiplicities fall out of the unitriangular system
   [dim M(mu)_gamma] = [mult] x [dim L _gamma] on the dot orbit.

Character coefficients of a Verma at a point are Kostant partition counts;
everything runs in a bounded cone (differences of orbit points), so all
objects here are finite and exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SuperlinkError, UnsupportedInputError
from .root_data import RootDatum, is_integral, pairing_coroot
from .weights import Weight
from .weyl import orbit_dot

Matrix = tuple[tuple[Fraction, ...], ...]


def _zeros(n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(n)]


def _freeze(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _bracket(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    ab = _zeros(n)
    for i in range(n):
        for k in range(n):
            if a[i][k] == 0:
                continue
            for j in range(n):
                ab[i][j] += a[i][k] * b[k][j]
    ba = _zeros(n)
    for i in range(n):
        for k in range(n):
            if b[i][k] == 0:
                continue
            for j in range(n):
                ba[i][j] += b[i][k] * a[k][j]
    return _freeze([[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class _Realization:
    """Matrices for every root vector and per-coordinate Cartan element."""

    size: int
    root_matrix: dict[Weight, Matrix]       # one matrix per root (both signs)
    root_anchor: dict[Weight, tuple[int, int]]  # entry that reads off the coefficient
    cartan: list[Matrix]                    # H_i dual to the i-th coordinate
    cartan_anchor: list[tuple[int, int]]


def _single(n: int, positions) -> Matrix:
    rows = _zeros(n)
    for (i, j) in positions:
        rows[i][j] += 1
    return _freeze(rows)


def realize(datum: RootDatum) -> _Realization:
    """Block-diagonal matrix model of the reductive datum."""
    if datum.family != "reductive":
        raise UnsupportedInputError("matrix realizations exist for reductive data only")
    sizes = [size + (size if kind == "C" else 0) for kind, _, size in datum.blocks]
    total = sum(sizes)
    offsets = []
    off = 0
    for s in sizes:
        offsets.append(off)
        off += s
    root_matrix: dict[Weight, Matrix] = {}
    root_anchor: dict[Weight, tuple[int, int]] = {}
    cartan: list[Matrix] = [None] * datum.dim  # type: ignore[list-item]
    cartan_anchor: list[tuple[int, int]] = [None] * datum.dim  # type: ignore[list-item]

    for b, (kind, start, size) in enumerate(datum.blocks):
        off = offsets[b]
        for local in range(size):
            coord = start + local
            if kind == "A":
                cartan[coord] = _single(total, [(off + local, off + local)])
                cartan_anchor[coord] = (off + local, off + local)
            else:
                rows = _zeros(total)
                rows[off + local][off + local] = Fraction(1)
                rows[off + size + local][off + size + local] = Fraction(-1)
                cartan[coord] = _freeze(rows)
                cartan_anchor[coord] = (off + local, off + local)

    def coords_of(w: Weight) -> list[tuple[int, Fraction]]:
        return [(i, c) for i, c in enumerate(w) if c != 0]

    for root in datum.even_positive:
        for sign in (1, -1):
            w = root.weight if sign > 0 else -root.weight
            entries = coords_of(w)
            (i, ci) = entries[0]
            block = next(b for b, (_, s, z) in enumerate(datum.blocks) if s <= i < s + z)
            kind, start, size = datum.blocks[block]
            off = offsets[block]
            li = i - start
            if kind == "A":
                (j, _) = entries[1]
                lj = j - start
                if ci > 0:
                    pos = [(off + li, off + lj)]
                else:
                    pos = [(off + lj, off + li)]
            else:
                if len(entries) == 2:
                    (j, cj) = entries[1]
                    lj = j - start
                    if ci > 0 and cj < 0:      # e_i - e_j
                        pos = [(off + li, off + lj), (off + size + lj, off + size + li)]
                    elif ci < 0 and cj > 0:    # e_j - e_i
                        pos = [(off + lj, off + li), (off + size + li, off + size + lj)]
                    elif ci > 0 and cj > 0:    # e_i + e_j
                        pos = [(off + li, off + size + lj), (off + lj, off + size + li)]
                    else:                       # -(e_i + e_j)
                        pos = [(off + size + lj, off + li), (off + size + li, off + lj)]
                else:
                    if ci > 0:                  # 2 e_i
                        pos = [(off + li, off + size + li)]
                    else:                       # -2 e_i
                        pos = [(off + size + li, off + li)]
            mat = _single(total, pos)
            if kind == "C" and len(entries) == 2 and entries[0][1] * entries[1][1] < 0:
                # e_i - e_j in sp: second entry carries a minus sign
                rows = [list(r) for r in mat]
                (pi, pj) = pos[1]
                rows[pi][pj] = Fraction(-1)
                mat = _freeze(rows)
            root_matrix[w] = mat
            root_anchor[w] = pos[0]
    real = _Realization(total, root_matrix, root_anchor, cartan, cartan_anchor)
    _check_realization(datum, real)
    return real


def _check_realization(datum: RootDatum, real: _Realization) -> None:
    # every root vector must be an h-eigenvector with its own weight
    for w, mat in real.root_matrix.items():
        for i, h in enumerate(real.cartan):
            br = _bracket(h, mat)
            expect = tuple(tuple(w[i] * v for v in row) for row in mat)
            if br != expect:
                raise SuperlinkError("matrix realization failed an eigenvalue check")


def _decompose(datum: RootDatum, real: _Realization, mat: Matrix):
    """Expand a Lie algebra matrix over root vectors and Cartan coordinates."""
    parts: list[tuple[str, object, Fraction]] = []
    residue = [list(row) for row in mat]
    for w, rm in real.root_matrix.items():
        (i, j) = real.root_anchor[w]
        c = residue[i][j] / rm[i][j]
        if c != 0:
            parts.append(("root", w, c))
            for a in range(real.size):
                for b in range(real.size):
                    if rm[a][b] != 0:
                        residue[a][b] -= c * rm[a][b]
    for coord in range(datum.dim):
        (i, j) = real.cartan_anchor[coord]
        c = residue[i][j]
        if c != 0:
            parts.append(("h", coord, c))
            hm = real.cartan[coord]
            for a in range(real.size):
                for b in range(real.size):
                    if hm[a][b] != 0:
                        residue[a][b] -= c * hm[a][b]
    if any(v != 0 for row in residue for v in row):
        raise SuperlinkError("bracket left the Lie algebra span")
    return parts


Generator = tuple[str, int]  # ("e" | "f", positive-root index) or ("h", coordinate)


def _lattice(w: Weight) -> tuple[int, ...] | None:
    """w as an int tuple, or None when a coordinate is not an integer.

    Roots of a reductive datum are integer vectors, so such a w lies off the
    root lattice.
    """
    if any(c.denominator != 1 for c in w):
        return None
    return tuple(c.numerator for c in w)


class _Frame:
    """Everything the Verma models of one datum share; none of it depends on lam.

    * the audited matrix realization;
    * the even positive roots as int tuples (PBW index order);
    * the height functional mu -> sum_a <mu, a^vee> over the even positive
      roots, as an integer vector (checked);
    * the bracket table (x, i) -> [x, f_i] expanded over the generators,
      for every generator x and positive-root index i.
    """

    def __init__(self, datum: RootDatum):
        self.real = realize(datum)
        self.weights = tuple(r.weight for r in datum.even_positive)
        index = {w: i for i, w in enumerate(self.weights)}
        units = [Weight([int(i == j) for j in range(datum.dim)]) for i in range(datum.dim)]
        height = [sum(pairing_coroot(datum, u, a) for a in datum.even_positive) for u in units]
        roots = [_lattice(w) for w in self.weights]
        if None in roots or any(h.denominator != 1 for h in height):
            raise SuperlinkError("the oracle needs integer roots and an integral height")
        self.roots = tuple(roots)
        self.height = tuple(h.numerator for h in height)

        def matrix(key: Generator) -> Matrix:
            kind, i = key
            if kind == "h":
                return self.real.cartan[i]
            return self.real.root_matrix[self.weights[i] if kind == "e" else -self.weights[i]]

        def generator(kind: str, data) -> Generator:
            if kind == "h":
                return ("h", data)
            return ("e", index[data]) if data in index else ("f", index[-data])

        keys = [(kind, i) for kind in "ef" for i in range(len(roots))]
        keys += [("h", i) for i in range(datum.dim)]
        self.brackets: dict[tuple[Generator, int], tuple[tuple[Generator, Fraction], ...]] = {
            (key, head): tuple((generator(kind, data), c) for kind, data, c in
                               _decompose(datum, self.real,
                                          _bracket(matrix(key), matrix(("f", head)))))
            for key in keys for head in range(len(roots))}


@lru_cache(maxsize=16)
def _frame(datum: RootDatum) -> _Frame:
    return _Frame(datum)


def _height_key(frame: _Frame, n: tuple[int, ...]) -> int:
    return sum(h * c for h, c in zip(frame.height, n))


class VermaModel:
    """Verma module over a small reductive datum, with exact PBW arithmetic.

    Weight-space vectors are dicts {monomial: coefficient} where a monomial
    is a nonincreasing tuple of positive-root indices (the PBW order), and
    applying generators straightens products via the datum's bracket table.
    Weight spaces M(lam)_{lam - beta} are searched on the int tuple of beta.
    """

    def __init__(self, datum: RootDatum, lam: Weight):
        self.datum = datum
        self.lam = lam
        self.frame = _frame(datum)
        self.real = self.frame.real
        self.pos_roots = self.frame.weights
        # per-instance memos: a model and its caches die with the last reference
        self._act_cache: dict = {}
        self._monomial_cache: dict = {}
        self._expressible_cache: dict = {}

    # -- generator actions ------------------------------------------------
    def _apply_parts(self, parts, mono):
        out: dict = {}
        for key, coeff in parts:
            for m, c in self._act(key, mono).items():
                out[m] = out.get(m, Fraction(0)) + coeff * c
        return {m: c for m, c in out.items() if c != 0}

    def _act(self, key: Generator, mono):
        cache_key = (key, mono)
        result = self._act_cache.get(cache_key)
        if result is not None:
            return result
        kind, idx = key
        if not mono:
            if kind == "f":
                result = {(idx,): Fraction(1)}
            elif kind == "e":
                result = {}
            else:
                value = self.lam[idx]
                result = {(): value} if value != 0 else {}
        else:
            head, rest = mono[0], mono[1:]
            if kind == "f" and idx <= head:
                result = {(idx,) + mono: Fraction(1)}
            else:
                # x f_head = f_head x + [x, f_head]
                out: dict = {}
                for m, c in self._act(key, rest).items():
                    for m2, c2 in self._act(("f", head), m).items():
                        out[m2] = out.get(m2, Fraction(0)) + c * c2
                for m, c in self._apply_parts(self.frame.brackets[key, head], rest).items():
                    out[m] = out.get(m, Fraction(0)) + c
                result = {m: c for m, c in out.items() if c != 0}
        self._act_cache[cache_key] = result
        return result

    # -- weight spaces -----------------------------------------------------
    def _monomials(self, beta: Weight) -> tuple[tuple[int, ...], ...]:
        """All PBW monomials of weight -beta (none unless beta is a
        nonnegative root sum)."""
        if len(beta) != self.datum.dim:
            raise ValueError("weight dimensions differ")
        n = _lattice(beta)
        if n is None:
            return ()
        cached = self._monomial_cache.get(n)
        if cached is not None:
            return cached
        roots = self.frame.roots
        out = []

        def rec(remaining: tuple[int, ...], max_idx: int, acc):
            if not any(remaining):
                out.append(tuple(reversed(acc)))  # PBW order: nondecreasing indices
                return
            for i in range(max_idx, -1, -1):
                nxt = tuple(a - b for a, b in zip(remaining, roots[i]))
                if self._plausible(nxt, i):
                    rec(nxt, i, acc + [i])

        rec(n, len(roots) - 1, [])
        result = self._monomial_cache[n] = tuple(out)
        return result

    def _plausible(self, remaining: tuple[int, ...], max_idx: int) -> bool:
        # cheap cone test: remaining must stay expressible over allowed roots
        if not any(remaining):
            return True
        return _height_key(self.frame, remaining) >= 0 and self._expressible(remaining, max_idx)

    def _expressible(self, remaining: tuple[int, ...], max_idx: int) -> bool:
        key = (remaining, max_idx)
        cached = self._expressible_cache.get(key)
        if cached is None:
            cached = self._expressible_cache[key] = self._search(remaining, max_idx)
        return cached

    def _search(self, remaining: tuple[int, ...], max_idx: int) -> bool:
        if not any(remaining):
            return True
        roots = self.frame.roots
        for i in range(max_idx, -1, -1):
            nxt = tuple(a - b for a, b in zip(remaining, roots[i]))
            if _height_key(self.frame, nxt) >= 0 and self._expressible(nxt, i):
                return True
        return False

    def verma_dim(self, beta: Weight) -> int:
        return len(self._monomials(beta))

    def _gram(self, beta: Weight) -> list[list[Fraction]]:
        """The contravariant form on M(lam)_{lam - beta} in the PBW basis."""
        monos = self._monomials(beta)
        gram = []
        for left in monos:
            row = []
            for right in monos:
                vec = {right: Fraction(1)}
                for f_idx in left:  # transpose of f-monomial: e's applied in order
                    nxt: dict = {}
                    for m, c in vec.items():
                        for m2, c2 in self._act(("e", f_idx), m).items():
                            nxt[m2] = nxt.get(m2, Fraction(0)) + c * c2
                    vec = nxt
                row.append(vec.get((), Fraction(0)))
            gram.append(row)
        return gram

    def simple_dim(self, beta: Weight) -> int:
        """dim L(lam) at weight lam - beta: the rank of the contravariant Gram."""
        gram = self._gram(beta)
        return _rank(gram) if gram else 0


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [v / pivot for v in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def verma_multiplicities(datum: RootDatum, lam: Weight) -> dict[tuple[Weight, Weight], int]:
    """[M(mu) : L(gamma)] for all mu, gamma in the dot orbit of lam.

    Solves the unitriangular system dim M(mu)_gamma =
    sum_g [M(mu):L(g)] dim L(g)_gamma over the orbit, with the simple
    dimensions computed as contravariant-form ranks.
    """
    if datum.family != "reductive":
        raise UnsupportedInputError("the brute-force oracle covers reductive data only")
    if len(datum.simple_even) > 2:
        raise UnsupportedInputError("the brute-force oracle is capped at rank 2")
    if not is_integral(datum, lam):
        raise UnsupportedInputError("the brute-force oracle needs an integral weight")
    frame = _frame(datum)
    # orbit points differ from lam by root-lattice vectors, so heights
    # relative to lam order the orbit as absolute heights would
    orbit = sorted(orbit_dot(datum, lam),
                   key=lambda w: (_height_key(frame, _lattice(w - lam)), w.coords))
    models = {mu: VermaModel(datum, mu) for mu in orbit}
    r = len(orbit)
    # A[i][j] = dim M(orbit[i]) at weight orbit[j]; L likewise for simples
    A = [[0] * r for _ in range(r)]
    L = [[0] * r for _ in range(r)]
    for i, mu in enumerate(orbit):
        for j, gamma in enumerate(orbit):
            A[i][j] = models[mu].verma_dim(mu - gamma)
            L[i][j] = models[mu].simple_dim(mu - gamma)
    # forward-substitute D from A = D L (both lower triangular, unit diagonal)
    D = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, -1, -1):
            total = A[i][j] - sum(D[i][k] * L[k][j] for k in range(j + 1, i + 1))
            if total < 0 or (j == i and total != 1):
                raise SuperlinkError("oracle produced an inconsistent multiplicity")
            D[i][j] = total
    out = {}
    for i, mu in enumerate(orbit):
        for j, gamma in enumerate(orbit):
            out[(mu, gamma)] = D[i][j]
    return out
