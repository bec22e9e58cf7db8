"""Brute-force highest-weight machinery for small reductive data.

Ground truth for Verma composition multiplicities, computed without any
Kazhdan-Lusztig input:

1. realize the datum's Lie algebra by explicit integer matrices (gl blocks
   for type A factors, sp blocks for type C), each root vector by one rule
   from root_data's integer roots (see realize), and read all structure
   constants off exact matrix brackets, once per datum (see _Frame); the
   realization is Chevalley-normalised, so they are all integers;
2. realize Verma-module weight spaces as PBW monomials in the negative
   root vectors, found by a search on integer root-lattice coordinates
   pruned by the height functional mu -> sum_a <mu, a^vee>, summed over
   the realization's own coroots (one table per datum, kept on its frame:
   see _Frame.monomials), and straighten products recursively, once per
   datum: x f_mono v has int coefficients for x = f_k, and coefficients
   affine in the values H_i(lam) of the Cartan elements for x = e_k, so
   the frame stores them as int forms (see _Frame.act) that each lam
   evaluates;
3. the weight multiplicities of a simple module are the ranks of the
   contravariant (transpose) form's Gram matrices on the Verma weight
   spaces.  The oracle takes integral weights only, and their Gram entries
   are integers: the structure constants are, and so are the values
   H_i(lam) once each type A block's coordinates are shifted by their
   common fractional part (see _cartan_values).  That shift subtracts a
   multiple of the block's identity matrix, which is central and never
   occurs in a bracket [x, f_beta] (only coroots do, and a type A coroot
   sums to 0 over its block), so no Gram entry changes; a type C
   coordinate of an integral weight is already an integer.  Each Gram
   entry <f_i f_rest v, f_right v> is read as <f_rest v, e_i f_right v>
   off the Gram one root higher (see VermaModel._gram), and the rank is
   exact fraction-free (Bareiss) elimination over Z (see _rank);
4. composition multiplicities fall out of the unitriangular system
   [dim M(mu)_gamma] = [mult] x [dim L _gamma] on the dot orbit, which the
   oracle closes, like its integrality test, through the coroots of its
   own realization (see _dot_orbit).

Character coefficients of a Verma at a point are Kostant partition counts;
everything runs in a bounded cone (differences of orbit points), so all
objects here are finite and exact.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import SuperlinkError, UnsupportedInputError
from .root_data import RootDatum, _derived
from .weights import Weight
from .weyl import _closure

Matrix = tuple[tuple[int, ...], ...]


def _product(a: Matrix, b: Matrix) -> list[list[int]]:
    n = len(a)
    ab = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] == 0:
                continue
            for j in range(n):
                ab[i][j] += a[i][k] * b[k][j]
    return ab


def _bracket(a: Matrix, b: Matrix) -> Matrix:
    ab, ba = _product(a, b), _product(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


Generator = tuple[str, int]  # ("e" | "f", positive-root index) or ("h", coordinate)


@dataclass(frozen=True)
class _Realization:
    """Matrices for every root vector and per-coordinate Cartan element."""

    size: int
    roots: tuple[tuple[int, ...], ...]      # the even positive roots, dense
    root_matrix: dict[Generator, Matrix]    # ("e", k) and ("f", k) per root
    cartan: list[Matrix]                    # H_i dual to the i-th coordinate


def _matrix(n: int, entries: dict[tuple[int, int], int]) -> Matrix:
    return tuple(tuple(entries.get((a, b), 0) for b in range(n)) for a in range(n))


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
    normalisation).  A root that is no difference of two slot weights (a
    doubled root 2 alpha, whose coroot alpha^vee / 2 is not an integer
    vector) is refused.
    """
    if datum.family != "reductive":
        raise UnsupportedInputError("matrix realizations exist for reductive data only")
    dim = datum.dim
    slots = [(b, tuple(sign * (k == i) for k in range(dim)))
             for b, (kind, start, size) in enumerate(datum.blocks)
             for sign in ((1, -1) if kind == "C" else (1,)) for i in range(start, start + size)]
    n = len(slots)
    cartan = [_matrix(n, {(a, a): wt[i] for a, (_, wt) in enumerate(slots)}) for i in range(dim)]
    roots = tuple(tuple(dict(root.vector).get(k, 0) for k in range(dim))
                  for root in datum.even_positive)
    root_matrix: dict[Generator, Matrix] = {}
    for k, alpha in enumerate(roots):
        pair = next(((a, b) for a, (p, u) in enumerate(slots) for b, (q, v) in enumerate(slots)
                     if p == q and tuple(x - y for x, y in zip(u, v)) == alpha), None)
        if pair is None:
            raise UnsupportedInputError(f"{datum.describe()} needs integer roots and coroots")
        a, b = pair
        entries = {(a, b): 1}
        if datum.blocks[slots[a][0]][0] == "C":
            minus = [(p, tuple(-x for x in u)) for p, u in slots]
            entries.setdefault((slots.index(minus[b]), slots.index(minus[a])),
                               -sum(slots[a][1]) * sum(slots[b][1]))
        root_matrix["e", k] = x = _matrix(n, entries)
        root_matrix["f", k] = tuple(zip(*x))
    real = _Realization(n, roots, root_matrix, cartan)
    _check_realization(datum, real)
    return real


def _check_realization(datum: RootDatum, real: _Realization) -> None:
    # every root vector must be an h-eigenvector with its own weight
    for (kind, k), mat in real.root_matrix.items():
        sign = 1 if kind == "e" else -1
        for i, h in enumerate(real.cartan):
            br = _bracket(h, mat)
            expect = tuple(tuple(sign * real.roots[k][i] * v for v in row) for row in mat)
            if br != expect:
                raise SuperlinkError("matrix realization failed an eigenvalue check")


def _decompose(datum: RootDatum, real: _Realization, mat: Matrix):
    """Expand a Lie algebra matrix over root vectors and Cartan coordinates,
    as (generator, coefficient) pairs, reading each (integer) coefficient
    off the first nonzero entry of its basis matrix."""
    parts: list[tuple[Generator, int]] = []
    residue = [list(row) for row in mat]
    basis = [*real.root_matrix.items(), *((("h", i), hm) for i, hm in enumerate(real.cartan))]
    for key, bm in basis:
        i, j = next((a, b) for a, row in enumerate(bm) for b, v in enumerate(row) if v)
        c, r = divmod(residue[i][j], bm[i][j])
        if r:
            raise SuperlinkError("a structure constant is not an integer")
        if c != 0:
            parts.append((key, c))
            for a in range(real.size):
                for b in range(real.size):
                    if bm[a][b] != 0:
                        residue[a][b] -= c * bm[a][b]
    if any(v != 0 for row in residue for v in row):
        raise SuperlinkError("bracket left the Lie algebra span")
    return parts


class _Frame:
    """Everything the Verma models of one datum share; none of it depends on lam.

    * the audited matrix realization, its root vectors keyed ("e", k) and
      ("f", k) by the index k of the positive root in `datum.even_positive`
      (the PBW index order), its Cartan elements ("h", i) by coordinate;
    * the even positive roots, dense;
    * the bracket table (x, i) -> [x, f_i] expanded over those generator
      keys with integer coefficients, for every root vector x and
      positive-root index i;
    * each positive root's coroot, the ("h", i) parts (i, c) of [e_k, f_k],
      and the indices of the simple roots, which test integrality and close
      the dot orbit (see _dot_orbit), and the height functional mu -> sum_a
      <mu, a^vee>, the sum of those coroots;
    * the PBW monomial tables (see monomials and index) and the action
      table (see act), which fill with the weight spaces asked of the datum
      and are kept, with no size bound, for its life.
    """

    def __init__(self, datum: RootDatum):
        self.real = real = realize(datum)
        self.roots = real.roots
        self.brackets: dict[tuple[Generator, int], tuple[tuple[Generator, int], ...]] = {
            (key, head): tuple(_decompose(datum, real, _bracket(x, real.root_matrix["f", head])))
            for key, x in real.root_matrix.items() for head in range(len(real.roots))}
        self.coroots = tuple(tuple((i, c) for (kind, i), c in self.brackets[("e", k), k]
                                   if kind == "h") for k in range(len(real.roots)))
        self.height = tuple(sum(dict(coroot).get(i, 0) for coroot in self.coroots)
                            for i in range(len(real.cartan)))
        self.simple = tuple(k for k, root in enumerate(datum.even_positive)
                            if root in datum.simple_even)
        self._one = (1,) + (0,) * len(real.cartan)  # the constant form 1
        self._actions: dict = {}
        self._below_cache: dict = {}
        self._index_cache: dict = {}

    def pairings(self, lam: Weight) -> tuple[int, ...] | None:
        """<lam, a^vee> for every positive root a, through the realization's
        coroots; None unless every one is an integer."""
        values = [sum(c * lam[i] for i, c in coroot) for coroot in self.coroots]
        if any(v.denominator != 1 for v in values):
            return None
        return tuple(v.numerator for v in values)

    def act(self, key: Generator, mono: tuple[int, ...]) -> dict:
        """x f_mono v for x = ("e" | "f", k) and a PBW monomial mono, as
        {monomial: coefficient}, memoized per datum.  An f's coefficients
        are ints; an e's are forms (c_0, c_1, ..., c_dim) standing for
        c_0 + sum_i c_i H_i(lam)."""
        cache_key = (key, mono)
        result = self._actions.get(cache_key)
        if result is None:
            result = self._actions[cache_key] = self._straighten(key, mono)
        return result

    def _straighten(self, key: Generator, mono: tuple[int, ...]) -> dict:
        kind, idx = key
        if not mono:
            return {(idx,): 1} if kind == "f" else {}
        head, rest = mono[0], mono[1:]
        if kind == "f" and idx <= head:
            return {(idx,) + mono: 1}
        # x f_head = f_head x + [x, f_head], as terms (c, m, coefficient),
        # c an int; H_i acts on f_rest v by lam's value minus rest's roots
        terms = [(c2, m2, c) for m, c in self.act(key, rest).items()
                 for m2, c2 in self.act(("f", head), m).items()]
        for part, c in self.brackets[key, head]:
            if part[0] == "h":
                form = [0] * len(self._one)
                form[0], form[part[1] + 1] = -sum(self.roots[m][part[1]] for m in rest), 1
                terms.append((c, rest, tuple(form)))
            else:
                terms += [(c, m, v) for m, v in self.act(part, rest).items()]
        out: dict = {}
        if kind == "f":
            # [f_idx, f_head] has a nonzero weight: it holds f's only
            for c, m, v in terms:
                if type(v) is not int:
                    raise SuperlinkError("a bracket of two f's left their span")
                out[m] = out.get(m, 0) + c * v
            return {m: v for m, v in out.items() if v}
        # an e's forms are only ever scaled by ints: a term of e f_mono v
        # meets at most one Cartan element, which ends it
        zero = (0,) * len(self._one)
        for c, m, v in terms:
            if type(v) is int:
                c, v = c * v, self._one
            out[m] = tuple(a + c * b for a, b in zip(out.get(m, zero), v))
        return {m: v for m, v in out.items() if any(v)}

    # -- PBW monomials: neither table depends on lam -------------------------
    def monomials(self, n: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """All PBW monomials of weight -n, n an int tuple (none unless n is
        a nonnegative root sum)."""
        return self._below(n, len(self.roots) - 1)

    def index(self, n: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Each monomial of weight -n -> its position in monomials(n)."""
        index = self._index_cache.get(n)
        if index is None:
            index = self._index_cache[n] = {m: k for k, m in enumerate(self.monomials(n))}
        return index

    def _below(self, n: tuple[int, ...], max_idx: int) -> tuple[tuple[int, ...], ...]:
        """The monomials of weight -n whose indices are all <= max_idx, in
        PBW order (nondecreasing indices), memoized on (n, max_idx)."""
        key = (n, max_idx)
        cached = self._below_cache.get(key)
        if cached is None:
            cached = self._below_cache[key] = self._expand(n, max_idx)
        return cached

    def _expand(self, n: tuple[int, ...], max_idx: int) -> tuple[tuple[int, ...], ...]:
        if not any(n):
            return ((),)
        # every positive root has positive height, so the search stops
        if _height_key(self.height, n) < 0:
            return ()
        roots = self.roots
        return tuple(m + (i,) for i in range(max_idx, -1, -1)
                     for m in self._below(tuple(a - b for a, b in zip(n, roots[i])), i))


def _height_key(height: tuple[int, ...], n: tuple[int, ...]) -> int:
    return sum(h * c for h, c in zip(height, n))


def _cartan_values(datum: RootDatum, lam: Weight) -> tuple[int, ...]:
    """The values of H_0, ..., H_{dim-1} on the highest weight vector, as
    ints: lam with each type A block shifted by the fractional part of its
    first coordinate (see step 3 of the module docstring).  They are all
    integers exactly when lam is integral (a type A coroot is some e_i -
    e_j, and a type C coordinate pairs with the coroot e_i of 2 e_i); any
    other lam is refused."""
    coords = list(lam.coords)
    for kind, start, size in datum.blocks:
        if kind == "A" and coords[start].denominator != 1:
            shift = coords[start] % 1
            coords[start:start + size] = [c - shift for c in coords[start:start + size]]
    if any(c.denominator != 1 for c in coords):
        raise UnsupportedInputError("the brute-force oracle needs an integral weight")
    return tuple(c.numerator for c in coords)


class VermaModel:
    """Verma module over a small reductive datum at an integral weight,
    with exact PBW arithmetic on ints.

    Weight-space vectors are dicts {monomial: coefficient} where a monomial
    is a nondecreasing tuple of positive-root indices (the PBW order).  The
    frame of the datum straightens every product once, into forms affine in
    the Cartan values; a model evaluates them at its lam.  A weight space
    M(lam)_{lam - beta} is named by the int tuple n of beta's coordinates.
    """

    def __init__(self, datum: RootDatum, lam: Weight):
        datum.check_dim(lam)
        self.frame = _derived(datum, _Frame)
        # a form (c_0, c_1, ...) takes the value c_0 + sum_i c_i H_i(lam)
        self._values = (1, *_cartan_values(datum, lam))
        # per-instance memos: a model and its caches die with the last reference
        self._act_cache: dict = {}
        self._gram_cache: dict = {}

    def _act(self, i: int, mono: tuple[int, ...]) -> dict:
        """e_i f_mono v: the frame's forms, evaluated at lam."""
        cache_key = (i, mono)
        result = self._act_cache.get(cache_key)
        if result is None:
            values = self._values
            result = self._act_cache[cache_key] = {
                m: sum(map(operator.mul, form, values))
                for m, form in self.frame.act(("e", i), mono).items()}
        return result

    # -- weight spaces -----------------------------------------------------
    def verma_dim(self, n: tuple[int, ...]) -> int:
        return len(self.frame.monomials(n))

    def _gram(self, n: tuple[int, ...]) -> list[list[int]]:
        """The contravariant form on M(lam)_{lam - beta} in the PBW basis, n
        the int tuple of beta."""
        # <f_i f_rest v, f_right v> = <f_rest v, e_i f_right v> (e_i is f_i's
        # transpose): each entry is a short sum over the Gram of the weight
        # space one root higher, memoized per weight
        gram = self._gram_cache.get(n)
        if gram is not None:
            return gram
        if not any(n):
            gram = self._gram_cache[n] = [[1]]
            return gram
        frame, below, gram = self.frame, {}, []
        monos = frame.monomials(n)
        for i, *rest in monos:
            if i not in below:
                m = tuple(a - b for a, b in zip(n, frame.roots[i]))
                below[i] = self._gram(m), frame.index(m)
            sub, index = below[i]
            row = sub[index[tuple(rest)]]
            gram.append([sum(c * row[index[m]] for m, c in self._act(i, right).items())
                         for right in monos])
        self._gram_cache[n] = gram
        return gram

    def simple_dim(self, n: tuple[int, ...]) -> int:
        """dim L(lam) at weight lam - beta: the rank of the contravariant Gram."""
        gram = self._gram(n)
        return _rank(gram) if gram else 0


def _rank(rows: list[list[int]]) -> int:
    """The rank of a nonempty int matrix, by fraction-free Gaussian
    elimination (Bareiss, Math. Comp. 22, 1968): every division below is
    exact on ints.  The caller's rows are not touched."""
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0])
    rank, previous = 0, 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        pivot = top[col]
        # every entry below is a minor of the original matrix, so the
        # division by the previous pivot (the last such minor) is exact
        for r in range(rank + 1, n_rows):
            f = rows[r][col]
            rows[r][col:] = [(pivot * a - f * b) // previous
                             for a, b in zip(rows[r][col:], top[col:])]
        previous = pivot
        rank += 1
    return rank


def _dot_orbit(frame: _Frame, pairings: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The int offsets mu - lam of the points mu of lam's dot orbit, given
    lam's coroot pairings: the closure of 0 under the simple reflections
    n -> n - <lam + n + rho0, a^vee> a (<rho0, a^vee> = 1 for a simple a)."""
    def moves(n):
        for k in frame.simple:
            p = pairings[k] + sum(c * n[i] for i, c in frame.coroots[k]) + 1
            yield tuple(a - p * b for a, b in zip(n, frame.roots[k]))

    return [n for level in _closure((0,) * len(frame.real.cartan), moves) for n in level]


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
    datum.check_dim(lam)
    frame = _derived(datum, _Frame)
    pairings = frame.pairings(lam)
    if pairings is None:
        raise UnsupportedInputError("the brute-force oracle needs an integral weight")
    # the int offsets of the orbit points from lam order the orbit by height
    # as the points would, and give each beta = mu - gamma as an int tuple
    points = sorted(((n, Weight._of(tuple(a + b for a, b in zip(lam.coords, n))))
                     for n in _dot_orbit(frame, pairings)),
                    key=lambda p: (_height_key(frame.height, p[0]), p[1].coords))
    offsets, orbit = [n for n, _ in points], [mu for _, mu in points]
    r = len(orbit)
    # A[i][j] = dim M(orbit[i]) at weight orbit[j]; L likewise for simples;
    # only j <= i is read (a higher gamma is no weight of M(mu))
    A = [[0] * r for _ in range(r)]
    L = [[0] * r for _ in range(r)]
    for i, (mu, n) in enumerate(zip(orbit, offsets)):
        model = VermaModel(datum, mu)
        for j in range(i + 1):
            beta = tuple(a - b for a, b in zip(n, offsets[j]))
            A[i][j] = model.verma_dim(beta)
            L[i][j] = model.simple_dim(beta)
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
