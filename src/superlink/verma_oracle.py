"""Brute-force highest-weight machinery for small reductive data.

Ground truth for Verma composition multiplicities, computed without any
Kazhdan-Lusztig input:

1. realize the datum's Lie algebra by explicit matrices (gl blocks for
   type A factors, sp blocks for type C), each root vector by one rule
   from root_data's integer roots (see realize), and read all structure
   constants off exact matrix brackets, once per datum (see _Frame);
2. realize Verma-module weight spaces as PBW monomials in the negative
   root vectors, found by a search on integer root-lattice coordinates
   pruned by root_data's height functional, and straighten products
   recursively;
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

from .errors import SuperlinkError, UnsupportedInputError
from .root_data import RootDatum, _derived, _integer_frame, _scaled, is_integral
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
    cartan: list[Matrix]                    # H_i dual to the i-th coordinate


def _matrix(n: int, entries: dict[tuple[int, int], int]) -> Matrix:
    return _freeze([[entries.get((a, b), 0) for b in range(n)] for a in range(n)])


def realize(datum: RootDatum) -> _Realization:
    """Block-diagonal matrix model of the reductive datum.

    The slots (rows) of a type A block carry the weights e_i of gl, those of
    a type C block e_i and then -e_i of sp; H_i is diagonal with the i-th
    coordinates of the slot weights.  The root vector of a positive root
    alpha is E_ab for the first slots a, b of one block with wt(a) - wt(b) =
    alpha, completed into sp in a type C block: X lies in sp exactly when
    X^T J + J X = 0 (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 1.2), which for E_ab adds -s_a s_b E_{b'a'}, a'
    and b' the slots of -wt(a) and -wt(b), s the signs of the slot weights
    (for 2 e_i, E_{b'a'} is E_ab itself and nothing is added).  The vector
    of -alpha is the transpose, so [X, X^T] is alpha's coroot (Chevalley
    normalisation).
    """
    if datum.family != "reductive":
        raise UnsupportedInputError("matrix realizations exist for reductive data only")
    dim = datum.dim
    slots = [(b, tuple(sign * (k == i) for k in range(dim)))
             for b, (kind, start, size) in enumerate(datum.blocks)
             for sign in ((1, -1) if kind == "C" else (1,)) for i in range(start, start + size)]
    n = len(slots)
    cartan = [_matrix(n, {(a, a): wt[i] for a, (_, wt) in enumerate(slots)}) for i in range(dim)]
    root_matrix: dict[Weight, Matrix] = {}
    for root in datum.even_positive:
        alpha = tuple(dict(root.vector).get(k, 0) for k in range(dim))
        a, b = next((a, b) for a, (p, u) in enumerate(slots) for b, (q, v) in enumerate(slots)
                    if p == q and tuple(x - y for x, y in zip(u, v)) == alpha)
        entries = {(a, b): 1}
        if datum.blocks[slots[a][0]][0] == "C":
            minus = [(p, tuple(-x for x in u)) for p, u in slots]
            entries.setdefault((slots.index(minus[b]), slots.index(minus[a])),
                               -sum(slots[a][1]) * sum(slots[b][1]))
        root_matrix[root.weight] = x = _matrix(n, entries)
        root_matrix[-root.weight] = tuple(zip(*x))
    real = _Realization(n, root_matrix, cartan)
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
    """Expand a Lie algebra matrix over root vectors and Cartan coordinates,
    reading each coefficient off the first nonzero entry of its basis
    matrix."""
    parts: list[tuple[str, object, Fraction]] = []
    residue = [list(row) for row in mat]
    basis = [("root", w, rm) for w, rm in real.root_matrix.items()]
    basis += [("h", coord, hm) for coord, hm in enumerate(real.cartan)]
    for kind, key, bm in basis:
        i, j = next((a, b) for a, row in enumerate(bm) for b, v in enumerate(row) if v)
        c = residue[i][j] / bm[i][j]
        if c != 0:
            parts.append((kind, key, c))
            for a in range(real.size):
                for b in range(real.size):
                    if bm[a][b] != 0:
                        residue[a][b] -= c * bm[a][b]
    if any(v != 0 for row in residue for v in row):
        raise SuperlinkError("bracket left the Lie algebra span")
    return parts


Generator = tuple[str, int]  # ("e" | "f", positive-root index) or ("h", coordinate)


class _Frame:
    """Everything the Verma models of one datum share; none of it depends on lam.

    * the audited matrix realization;
    * the even positive root vectors, dense (PBW index order), and root_data's
      height functional mu -> sum_a <mu, a^vee>;
    * the bracket table (x, i) -> [x, f_i] expanded over the generators,
      for every generator x and positive-root index i.
    """

    def __init__(self, datum: RootDatum):
        ints = _integer_frame(datum)
        self.real = realize(datum)
        self.weights = tuple(r.weight for r in datum.even_positive)
        index = {w: i for i, w in enumerate(self.weights)}
        roots = [tuple(dict(r.vector).get(i, 0) for i in range(datum.dim))
                 for r in datum.even_positive]
        self.roots, self.height = tuple(roots), ints.height

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
        self.frame = _derived(datum, _Frame)
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
        n = _scaled(beta, 1)
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
    frame = _derived(datum, _Frame)
    # orbit points differ from lam by root-lattice vectors, so heights
    # relative to lam order the orbit as absolute heights would
    orbit = sorted(orbit_dot(datum, lam),
                   key=lambda w: (_height_key(frame, _scaled(w - lam, 1)), w.coords))
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
