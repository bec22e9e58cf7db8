"""Reference forms of the Shapovalov oracle's Gram matrix and rank, on Fractions.

These are the straightforward forms `superlink.verma_oracle` replaced with
integer arithmetic: the Verma action straightened with Fraction
coefficients on the unshifted weight lam (the library shifts each type A
block by its central part and computes on ints), Cartan elements
straightened through their brackets like every other generator (the
library reads their value off the weight), the Gram entry of two PBW
monomials by applying the transposed left monomial's e's one by one to the
right one (the library reads each entry off the Gram of the weight space
one root higher), and the rank by Gauss-Jordan elimination over Q (the
library runs fraction-free Bareiss elimination over Z).  The matrix
realization and the PBW monomials (read off the library's frame) are the
library's own, so a Gram matrix here is indexed as the library's is, and a
weight space is named as the library names it, by the int tuple n of its
beta.  Tests compare the library against them.
"""
from fractions import Fraction

from superlink.root_data import _derived
from superlink.verma_oracle import _bracket, _decompose, _Frame


def _brackets(datum, frame):
    """(x, i) -> [x, f_i] over the generators, with Fraction coefficients,
    for every generator x: root vectors and Cartan elements."""
    real = frame.real
    matrix = {("h", i): h for i, h in enumerate(real.cartan)}
    matrix.update(real.root_matrix)
    return {(key, head): tuple((part, Fraction(c)) for part, c in
                               _decompose(datum, real, _bracket(mat, matrix["f", head])))
            for key, mat in matrix.items() for head in range(len(frame.roots))}


class FractionVerma:
    """M(lam) with Fraction coefficients and the unshifted lam."""

    def __init__(self, datum, lam):
        self.lam = lam
        frame = _derived(datum, _Frame)
        self.brackets = _brackets(datum, frame)
        self.frame = frame
        self._act_cache = {}

    def _apply_parts(self, parts, mono):
        out = {}
        for key, coeff in parts:
            for m, c in self._act(key, mono).items():
                out[m] = out.get(m, Fraction(0)) + coeff * c
        return {m: c for m, c in out.items() if c != 0}

    def _act(self, key, mono):
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
                out = {}
                for m, c in self._act(key, rest).items():
                    for m2, c2 in self._act(("f", head), m).items():
                        out[m2] = out.get(m2, Fraction(0)) + c * c2
                for m, c in self._apply_parts(self.brackets[key, head], rest).items():
                    out[m] = out.get(m, Fraction(0)) + c
                result = {m: c for m, c in out.items() if c != 0}
        self._act_cache[cache_key] = result
        return result

    def gram(self, n):
        """The contravariant form on M(lam)_{lam - beta} in the PBW basis."""
        monos = self.frame.monomials(n)
        gram = []
        for left in monos:
            row = []
            for right in monos:
                vec = {right: Fraction(1)}
                for f_idx in left:  # transpose of f-monomial: e's applied in order
                    nxt = {}
                    for m, c in vec.items():
                        for m2, c2 in self._act(("e", f_idx), m).items():
                            nxt[m2] = nxt.get(m2, Fraction(0)) + c * c2
                    vec = nxt
                row.append(vec.get((), Fraction(0)))
            gram.append(row)
        return gram


def rank(rows):
    """Rank of a nonempty matrix by Gauss-Jordan elimination over Q."""
    rows = [[Fraction(v) for v in r] for r in rows]
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
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
