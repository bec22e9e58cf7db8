"""Seeded op streams for the three benchmark workloads.

Every workload is a closed loop with one caller.  Its stream is a fixed
schedule of *cells* (an op kind on one family or type), repeated block by
block; the schedule is the same for every seed, so any two seeds run the
same mix of kinds and families.  The inputs of a cell come from a pool of
`pool_size` entries generated from POOL_SEED, and the workload seed decides
which pool entries a run visits and in what order.  Reference answers are
recorded per pool entry (see record.py), so every op of every seed is
checked.

This module is stdlib only: it never imports the library, so the inputs a
run receives do not depend on the code under test.  Weights are produced as
literal strings; the worker parses them outside the timed region.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

POOL_SEED = 20211008
SCHEDULE_SEED = 7
# Seeds 1-10 were used while the benchmark was written; claims are re-checked
# on this one.
HELD_OUT_SEED = 4242


def _lit(coords) -> str:
    out = []
    for c in coords:
        c = Fraction(c)
        out.append(str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}")
    return ",".join(out)


@dataclass(frozen=True)
class Family:
    """What the generator needs to know about a datum, written out by hand.

    `blocks` are the Weyl-group coordinate windows ("A" permutes, "C"
    signed-permutes) and `rho0` the datum's Weyl vector; both are checked
    against the library by the benchmark's tests.
    """

    key: str
    build: tuple  # (family, kwargs) for build_root_datum
    blocks: tuple[tuple[str, int, int], ...]
    rho0: tuple[Fraction, ...]
    simple: int  # number of simple even roots

    @property
    def dim(self) -> int:
        return len(self.rho0)


def _fam(key, build, blocks, rho0, simple) -> Family:
    return Family(key, build, tuple(blocks), tuple(Fraction(c) for c in rho0), simple)


H = Fraction(1, 2)

FAMILIES = {f.key: f for f in [
    _fam("gl22", ("gl", {"m": 2, "n": 2}), [("A", 0, 2), ("A", 2, 2)], [H, -H, H, -H], 2),
    _fam("gl32", ("gl", {"m": 3, "n": 2}), [("A", 0, 3), ("A", 3, 2)], [1, 0, -1, H, -H], 3),
    _fam("gl44", ("gl", {"m": 4, "n": 4}), [("A", 0, 4), ("A", 4, 4)],
         [3 * H, H, -H, -3 * H] * 2, 6),
    _fam("osp26", ("osp2", {"n": 3}), [("A", 0, 1), ("C", 1, 3)], [0, 3, 2, 1], 3),
    _fam("p4", ("p", {"n": 4}), [("A", 0, 4)], [3, 2, 1, 0], 3),
    _fam("osp32", ("osp32", {}), [("C", 0, 1), ("C", 1, 1)], [1, H], 2),
    _fam("A3xC2", ("reductive", {"factors": "A3,C2"}), [("A", 0, 4), ("C", 4, 2)],
         [3 * H, H, -H, -3 * H, 2, 1], 5),
    # reductive types of the kl workload
    _fam("A1", ("reductive", {"factors": "A1"}), [("A", 0, 2)], [H, -H], 1),
    _fam("A2", ("reductive", {"factors": "A2"}), [("A", 0, 3)], [1, 0, -1], 2),
    _fam("A3", ("reductive", {"factors": "A3"}), [("A", 0, 4)], [3 * H, H, -H, -3 * H], 3),
    _fam("A4", ("reductive", {"factors": "A4"}), [("A", 0, 5)], [2, 1, 0, -1, -2], 4),
    _fam("C2", ("reductive", {"factors": "C2"}), [("C", 0, 2)], [2, 1], 2),
    _fam("C3", ("reductive", {"factors": "C3"}), [("C", 0, 3)], [3, 2, 1], 3),
    _fam("A1xA1", ("reductive", {"factors": "A1,A1"}), [("A", 0, 2), ("A", 2, 2)],
         [H, -H, H, -H], 2),
    _fam("A1xC2", ("reductive", {"factors": "A1,C2"}), [("A", 0, 2), ("C", 2, 2)],
         [H, -H, 2, 1], 3),
    _fam("A2xC2", ("reductive", {"factors": "A2,C2"}), [("A", 0, 3), ("C", 3, 2)],
         [1, 0, -1, 2, 1], 4),
]}

# gl(4|4): rho = rho0 - rho1 with rho1 = (2,2,2,2|-2,-2,-2,-2)
GL44_RHO = tuple(c - s for c, s in zip(FAMILIES["gl44"].rho0, [2] * 4 + [-2] * 4))


# -- input helpers ----------------------------------------------------------

def _zeta(rng: random.Random, fam: Family) -> list[int]:
    return [i for i in range(1, fam.simple + 1) if rng.random() < 0.5]


def _integral(rng: random.Random, fam: Family) -> list[Fraction]:
    key = fam.key
    if key == "osp26":  # the leading coordinate is unconstrained by even roots
        return ([Fraction(rng.randint(-8, 8), 2)]
                + [Fraction(rng.randint(-4, 4)) for _ in range(3)])
    if key == "p4":  # all coordinates in one coset c + Z
        c = rng.choice([0, 0, 0, H, Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)])
        return [c + rng.randint(-4, 4) for _ in range(4)]
    if key == "osp32":  # <lam, e^vee> = 2 lam_e, so lam_e lives in Z/2
        return [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-10, 10), 2)]
    span = 4 if key.startswith(("A", "C")) else 5
    return [Fraction(rng.randint(-span, span)) for _ in range(fam.dim)]


def _dot_image(rng: random.Random, fam: Family, lam) -> list[Fraction]:
    """A random Weyl-group dot image w(lam + rho0) - rho0."""
    x = [a + r for a, r in zip(lam, fam.rho0)]
    for kind, start, size in fam.blocks:
        window = x[start:start + size]
        rng.shuffle(window)
        if kind == "C":
            window = [v if rng.random() < 0.5 else -v for v in window]
        x[start:start + size] = window
    return [a - r for a, r in zip(x, fam.rho0)]


def _regular_antidominant(rng: random.Random, fam: Family, spread: int = 6) -> list[Fraction]:
    """lam with lam + rho0 strictly increasing per window (negative in type C),
    entries of lam + rho0 at most `spread` (type C: `spread + 1`) in size."""
    x = [Fraction(0)] * fam.dim
    for kind, start, size in fam.blocks:
        values = range(-spread, spread + 1) if kind == "A" else range(-spread - 1, 0)
        x[start:start + size] = sorted(Fraction(v) for v in rng.sample(list(values), size))
    return [a - r for a, r in zip(x, fam.rho0)]


def _osp32_grid(rng: random.Random) -> list[Fraction]:
    # lam + rho = a d + b e with a, b in -1/2 - Z>=0, rho = (-1/2, 1/2)
    return [Fraction(-rng.randint(0, 4)), Fraction(-1 - rng.randint(0, 4))]


def _gl44_atypical(rng: random.Random) -> list[Fraction]:
    """lam + rho = (a | -perm(a)): atypicality degree 4."""
    a = [rng.randint(-3, 3) for _ in range(4)]
    b = [-v for v in a]
    rng.shuffle(b)
    return [Fraction(v) - r for v, r in zip(a + b, GL44_RHO)]


def _word(rng: random.Random, rank: int, longest: int) -> list[int]:
    return [rng.randrange(rank) for _ in range(rng.randint(0, longest))]


def _subword_pair(rng: random.Random, rank: int, longest: int):
    w = _word(rng, rank, longest)
    if rng.random() < 0.75:
        x = [s for s in w if rng.random() < 0.6]
    else:
        x = _word(rng, rank, len(w))
    return x, w


# -- sweep ------------------------------------------------------------------

SWEEP_FAMILIES = ("gl22", "gl32", "osp26", "p4", "osp32", "A3xC2")
SWEEP_KINDS = ("classify", "block_label", "same_block", "typicality",
               "antidom", "stab", "ups")


def _sweep_input(cell: str, rng: random.Random) -> dict:
    kind, key, *variant = cell.split("/")
    fam = FAMILIES[key]
    if key == "gl44":
        lam = _gl44_atypical(rng)
    elif key == "osp32" and kind == "same_block":
        lam = _osp32_grid(rng)
    else:
        lam = _integral(rng, fam)
    if variant == ["nonint"]:  # half-integer shift inside a type A window
        lam[rng.randrange(3)] += H
    op = {"fam": key, "lam": _lit(lam)}
    if kind in ("classify", "antidom", "ups"):
        op["zeta"] = _zeta(rng, fam)
    if kind == "same_block":
        if key == "osp32":
            mu = _osp32_grid(rng)
            if variant == ["offgrid"]:
                mu[0] = Fraction(rng.randint(1, 4))
        elif rng.random() < 0.5:
            mu = _dot_image(rng, fam, lam)
        else:
            mu = _integral(rng, fam)
        op["mu"] = _lit(mu)
    return op


def _sweep_schedule() -> list[str]:
    cells = [f"{k}/{f}" for f in SWEEP_FAMILIES for k in SWEEP_KINDS]
    # a small share of highly atypical gl(4|4) weights: the typicality tail
    cells += ["typicality/gl44", "block_label/gl44"]
    # expected refusals: a non-integral weight and an off-grid osp(3|2) pair
    cells += ["classify/gl32/nonint", "same_block/osp32/offgrid"]
    return cells


# -- validate ---------------------------------------------------------------

VALIDATE_FAMILIES = {
    # key: (CLI datum flags, dim)
    "p2": (["--family", "p", "--n", "2"], 2),
    "p3": (["--family", "p", "--n", "3"], 3),
    "p4": (["--family", "p", "--n", "4"], 4),
    "gl11": (["--family", "gl", "--m", "1", "--n", "1"], 2),
    "gl21": (["--family", "gl", "--m", "2", "--n", "1"], 3),
    "gl22": (["--family", "gl", "--m", "2", "--n", "2"], 4),
    "osp22": (["--family", "osp2", "--n", "1"], 2),
    "osp24": (["--family", "osp2", "--n", "2"], 3),
    "osp32": (["--family", "osp32"], 2),
}

# per (family, size class): every coordinate range spans this many steps, at
# a random offset that keeps the origin inside, so a class has a fixed point
# count and a steady cost while its boxes differ.  p(n) boxes are shifted
# cubes (one range for all coordinates) of at least three values: those have
# exactly n+1 components, while a lopsided p(n) box splits its labels and pays
# for an enlargement pass many times its own size.
VALIDATE_SPANS = {
    ("p2", "small"): 4, ("p2", "medium"): 12,
    ("p3", "small"): 3, ("p3", "medium"): 5,
    ("p4", "small"): 2, ("p4", "medium"): 3, ("p4", "large"): 4,
    ("gl11", "small"): 8, ("gl11", "medium"): 16,
    ("gl21", "small"): 3, ("gl21", "medium"): 5,
    ("gl22", "small"): 2, ("gl22", "medium"): 3, ("gl22", "large"): 4,
    ("osp22", "small"): 6, ("osp22", "medium"): 12,
    ("osp24", "small"): 3, ("osp24", "medium"): 5,
    ("osp32", "small"): 6, ("osp32", "medium"): 14,
}


def _validate_input(cell: str, rng: random.Random) -> dict:
    key, size = cell.split("/")
    flags, dim = VALIDATE_FAMILIES[key]
    span = VALIDATE_SPANS[(key, size)]
    ranges = []
    for _ in range(1 if key.startswith("p") else dim):
        lo = -rng.randint(0, span)
        ranges.append(f"{lo}..{lo + span}")
    return {"fam": key, "argv": ["validate", *flags, "--box=" + ",".join(ranges)]}


def _validate_schedule() -> list[str]:
    # the 625-point boxes are a seventh of the ops, so the p90 tail falls
    # among them
    cells = []
    for key in VALIDATE_FAMILIES:
        cells += [f"{key}/small"] * 3 + [f"{key}/medium"]
    return cells + ["p4/large", "gl22/large"] * 3


# -- kl ---------------------------------------------------------------------

# session groups for single KL polynomials: (rank, longest random word)
KL_GROUPS = {"S5": (4, 10), "S6": (5, 10), "C3": (3, 9)}
# reductive types and the number of their positive roots (word length bound)
KL_TYPES = {"A2": 3, "A3": 6, "C2": 4, "C3": 9, "A1xC2": 5, "A2xC2": 7}
KL_HEAVY = ("C3", "A2xC2")  # whole |orbit|^2 tables of a 48-element group


def _kl_input(cell: str, rng: random.Random) -> dict:
    kind, key = cell.split("/")
    if kind == "klpoly":
        rank, longest = KL_GROUPS[key]
        x, w = _subword_pair(rng, rank, longest)
        return {"group": key, "x": x, "w": w}
    if kind == "cross":
        return {"group": key}
    fam = FAMILIES[key]
    # the Shapovalov oracle's cost grows quickly with the size of lam + rho0
    base = _regular_antidominant(rng, fam, 2 if kind == "shap" else 6)
    if kind in ("verma", "shap"):
        op = {"fam": key, "lam": _lit(base)}
        if kind == "verma":
            longest = KL_TYPES[key]
            op["w"] = _word(rng, fam.simple, longest)
            op["x"] = _word(rng, fam.simple, longest)
        return op
    lam = _dot_image(rng, fam, base)
    op = {"fam": key, "lam": _lit(lam), "zeta": _zeta(rng, fam)}
    if kind == "wmult":
        op["mu"] = _lit(_dot_image(rng, fam, lam))
    return op


def _kl_schedule() -> list[str]:
    # Sorted by latency, a block is: 15 cheap ops (mostly memoized single
    # polynomials), 12 small-group Whittaker tables (the median falls among
    # them), 10 mid-size ops and 8 full tables of 48-element groups (the p90
    # tail falls among them).
    cells = [f"klpoly/{g}" for g in KL_GROUPS for _ in range(4)]
    cells += ["verma/A2", "verma/C2", "shap/A1"]
    cells += [f"{kind}/{t}" for kind in ("wmult", "wlen") for t in ("A2", "C2") for _ in range(3)]
    cells += ["verma/A1xC2", "verma/A3", "verma/C3", "verma/A2xC2", "shap/A1xA1", "shap/A2"]
    cells += [f"{kind}/{t}" for kind in ("wmult", "wlen") for t in ("A1xC2", "A3")]
    cells += [f"{kind}/{t}" for kind in ("wmult", "wlen") for t in KL_HEAVY for _ in range(2)]
    return cells


# once per run, at seeded positions inside the first block: the dense
# R-polynomial cross-check, a rare A4 length and the rank-2 type C
# Shapovalov check
KL_EVENTS = ("cross/S5", "wlen/A4", "shap/C2")


# -- workload table -----------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_input: object  # (cell, rng) -> op dict
    schedule: tuple[str, ...]
    pool_size: dict  # cell prefix (kind or family) -> pool entries
    replace: bool  # draw pool entries with replacement (memo reuse)
    events: tuple[str, ...] = ()
    trace_blocks: int = 1  # blocks replayed by a traced run

    def pool(self, cell: str) -> int:
        for prefix, size in self.pool_size.items():
            if cell.startswith(prefix):
                return size
        return self.pool_size["*"]

    def cells(self) -> list[str]:
        return sorted(set(self.schedule) | set(self.events))


def _shuffled(cells: list[str]) -> tuple[str, ...]:
    random.Random(SCHEDULE_SEED).shuffle(cells)
    return tuple(cells)


WORKLOADS = {
    "sweep": Workload("sweep", _sweep_input, _shuffled(_sweep_schedule()),
                      {"*": 1000}, replace=False, trace_blocks=150),
    "validate": Workload("validate", _validate_input, _shuffled(_validate_schedule()),
                         {"*": 40}, replace=False, trace_blocks=1),
    "kl": Workload("kl", _kl_input, _shuffled(_kl_schedule()),
                   {"klpoly": 60, "verma": 40, "cross": 1, "shap/C2": 4,
                    "wlen/A4": 8, "*": 20},
                   replace=True, events=KL_EVENTS, trace_blocks=1),
}


def pool_entry(workload: str, cell: str, index: int) -> dict:
    """Entry `index` of a cell's input pool; independent of the run seed."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{POOL_SEED}:{workload}:{cell}:{index}")
    op = wl.make_input(cell, rng)
    op["cell"] = cell
    op["index"] = index
    return op


class Stream:
    """The op stream of one run: `next_op()` yields pool entries forever."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self._draw: dict[str, object] = {}
        self._pending: list[str] = []
        self._block = 0
        self._events_at = self._place_events()

    def _place_events(self) -> dict[int, str]:
        n = len(self.wl.schedule) + len(self.wl.events)
        slots = sorted(random.Random(f"events:{self.seed}").sample(range(n), len(self.wl.events)))
        return dict(zip(slots, self.wl.events))

    def _draws(self, cell: str):
        """Pool indices for one cell: with replacement, or in seeded cycles
        through the whole pool so that a run repeats no input until it has
        used them all."""
        size = self.wl.pool(cell)
        rng = random.Random(f"{self.wl.name}:{self.seed}:{cell}")
        while True:
            if self.wl.replace:
                yield rng.randrange(size)
            else:
                order = list(range(size))
                rng.shuffle(order)
                yield from order

    def block_cells(self, block: int) -> list[str]:
        cells = list(self.wl.schedule)
        if block == 0:
            for slot in sorted(self._events_at):
                cells.insert(slot, self._events_at[slot])
        return cells

    def next_op(self) -> dict:
        if not self._pending:
            self._pending = self.block_cells(self._block)[::-1]
            self._block += 1
        cell = self._pending.pop()
        if cell not in self._draw:
            self._draw[cell] = self._draws(cell)
        return pool_entry(self.wl.name, cell, next(self._draw[cell]))

    def trace_length(self) -> int:
        """Ops replayed by a traced run: the first `trace_blocks` blocks."""
        return sum(len(self.block_cells(b)) for b in range(self.wl.trace_blocks))
