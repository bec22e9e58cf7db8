"""How each op calls the library, and how its outcome is written down.

`Session` is what a run sets up before its first timed op: the imported
library, the root data of the workload's families and, for `kl`, one
`FiniteWeylGroup` per type whose memo lives for the whole run.  The CLI
builds its own root data on every call, so `validate` sets up imports only.  `prepare`
turns a generated op into a zero-argument call (parsing happens here,
outside the timed region) plus what the gate needs to judge its outcome.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

from workloads import FAMILIES, WORKLOADS

import gate


class Session:
    def __init__(self, workload: str):
        import superlink
        self.lib = superlink
        self.workload = workload
        if workload == "validate":
            from superlink import cli
            self.cli = cli
            return
        # every cell names a family, except the symmetric groups of kl
        keys = sorted({cell.split("/")[1] for cell in WORKLOADS[workload].cells()} - {"S5", "S6"})
        self.data = {k: superlink.build_root_datum(FAMILIES[k].build[0], **FAMILIES[k].build[1])
                     for k in keys}
        self.groups = {}
        if workload == "kl":
            W = superlink.FiniteWeylGroup
            self.groups = {"S5": W.symmetric(5), "S6": W.symmetric(6)}
            self.groups.update({k: W(d) for k, d in self.data.items()})


@dataclass
class Prepared:
    call: object  # zero-argument callable: the timed part
    canon: object  # value -> canonical text; None for CLI ops
    checks: list = field(default_factory=list)  # value -> [zero-argument checks]
    points: int = 0  # weights the op handles; box points are read from the output

    def outcome(self, value, exc) -> tuple[str | None, str | None]:
        """(canonical outcome, failure reason), as in gate.outcome_text."""
        if exc is None and self.canon is None:
            return gate.cli_outcome(*value)
        return gate.outcome_text(value, exc, self.canon)

    def judge(self, value, exc, reference) -> str | None:
        """The gate's verdict on one outcome: None, or why the op failed."""
        text, reason = self.outcome(value, exc)
        checks = [] if reason or exc else [c for make in self.checks for c in make(value)]
        return gate.judge(text, reason, reference, checks)

    def work(self, value) -> int:
        if self.canon is None and value is not None and value[0] == 0:
            return json.loads(value[1])["points"]
        return self.points


def _weights(datum, op, *names):
    return [datum.parse_weight(op[n]) for n in names]


def prepare(op: dict, s: Session) -> Prepared:
    kind = op["cell"].split("/")[0]
    if s.workload == "validate":
        return _prepare_cli(op, s)
    if s.workload == "sweep":
        return _prepare_sweep(kind, op, s)
    return _prepare_kl(kind, op, s)


def _prepare_cli(op: dict, s: Session) -> Prepared:
    argv = op["argv"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = s.cli.main(argv)
        return rc, out.getvalue()

    def checks(value):
        rc, stdout = value
        if rc != 0:
            return []
        payload = json.loads(stdout)

        def sound():
            return None if payload["sound"] is True else "box report is not sound"

        def p_components():
            n = int(op["fam"][1:])
            got = len(payload["components"])
            return None if got == n + 1 else f"p({n}) box has {got} components, expected {n + 1}"

        return [sound, p_components] if op["fam"].startswith("p") else [sound]

    return Prepared(call, None, [checks])


def _prepare_sweep(kind: str, op: dict, s: Session) -> Prepared:
    lib = s.lib
    d = s.data[op["fam"]]
    fw = d.format_weight
    (lam,) = _weights(d, op, "lam")
    zeta = lib.WhittakerCharacter.from_indices(d, op["zeta"]) if "zeta" in op else None
    points = 1
    if kind == "classify":
        call = lambda: lib.classify_simple(d, lam, zeta)
        canon = lambda p: f"{fw(p.rep)} {p.witness.to_cycles()}"
    elif kind == "block_label":
        call = lambda: lib.block_label(d, lam)
        canon = lambda label: label.json_str()
    elif kind == "same_block":
        (mu,) = _weights(d, op, "mu")
        points = 2
        call = lambda: lib.same_block(d, lam, mu)
        canon = lambda status: status.value
    elif kind == "typicality":
        call = lambda: lib.typicality(d, lam)
        canon = lambda t: f"{t.kind}:{t.degree}"
    elif kind == "antidom":
        call = lambda: lib.antidominant_rep(d, lam, zeta.support)
        canon = lambda rw: f"{fw(rw[0])} {rw[1].to_cycles()}"
    elif kind == "stab":
        call = lambda: lib.stabilizer_roots(d, lam)
        canon = lambda roots: ";".join(fw(r.weight) for r in roots)
    elif kind == "ups":
        def call():
            nu = lib.dominant_partner(d, zeta)
            return lib.upsilon_of(d, nu), lib.in_X0(d, nu, lam)
        canon = lambda ui: f"{[d.simple_even.index(r) + 1 for r in ui[0]]} {ui[1]}"
    else:
        raise ValueError(f"unknown sweep op kind {kind!r}")
    return Prepared(call, canon, [], points)


def _prepare_kl(kind: str, op: dict, s: Session) -> Prepared:
    lib = s.lib
    if kind == "klpoly":
        W = s.groups[op["group"]]
        x, w = W.from_word(op["x"]), W.from_word(op["w"])
        return Prepared(lambda: lib.kl_polynomial(W, x, w),
                        lambda p: ",".join(map(str, p.coeffs)))
    if kind == "cross":
        n = int(op["group"][1:])
        make = lib.FiniteWeylGroup.symmetric if op["group"][0] == "S" else lib.FiniteWeylGroup.type_c
        call = lambda: lib.kl_cross_check(make(n))
        canon = lambda report: json.dumps(report.to_json(), sort_keys=True)

        def checks(report):
            return [lambda: None if report.ok and not report.diffs
                    else f"KL cross-check diff: {report.diffs[:3]}"]
        return Prepared(call, canon, [checks])
    d = s.data[op["fam"]]
    fw = d.format_weight
    (lam,) = _weights(d, op, "lam")
    if kind == "verma":
        G = s.groups[op["fam"]]
        w, x = G.from_word(op["w"]), G.from_word(op["x"])
        return Prepared(lambda: lib.verma_mult(d, lam, w, x), str, [], 1)
    if kind == "shap":
        call = lambda: lib.verma_series_rank_small(d, lam)

        def canon(table):
            return "\n".join(sorted(f"{fw(a)} {fw(b)} {v}" for (a, b), v in table.entries.items()))

        def checks(table):
            def agrees():
                kl_table = lib.builtin_verma_table(d, lam)
                if dict(table.entries) != dict(kl_table.entries):
                    return "Shapovalov multiplicities differ from verma_mult"
                return None
            return [agrees]
        return Prepared(call, canon, [checks], 1)
    zeta = lib.WhittakerCharacter.from_indices(d, op["zeta"])
    if kind == "wmult":
        (mu,) = _weights(d, op, "mu")
        return Prepared(lambda: lib.whittaker_mult(d, lam, mu, zeta), str, [], 2)
    if kind == "wlen":
        return Prepared(lambda: lib.whittaker_length(d, lam, zeta), str, [], 1)
    raise ValueError(f"unknown kl op kind {kind!r}")
