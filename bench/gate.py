"""Per-op correctness gate.

An op passes when its canonical outcome matches the reference recorded for
its pool entry and every independent check that applies holds.  A refusal
is an outcome like any other: a documented refusal that the reference
expects passes, one it does not expect fails, and an undocumented exception
always fails.  Nothing is skipped: an op without a reference fails too.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DIGEST_CHARS = 8

# the library's documented refusals, and the CLI exit codes that are not
# failures by themselves (0 ok, 3 unsupported input)
REFUSALS = ("UnsupportedInputError", "MissingTableEntryError")
CLI_CODES = (0, 3)


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=DIGEST_CHARS // 2).hexdigest()


def outcome_text(value, exc: BaseException | None, canon) -> tuple[str | None, str | None]:
    """(canonical outcome, failure reason); exactly one of them is None.

    `value` is the op's return value, `exc` what it raised, and `canon`
    turns a value into its canonical text.
    """
    if exc is None:
        return canon(value), None
    name = type(exc).__name__
    if name in REFUSALS:
        return f"refused:{name}", None
    return None, f"unexpected {name}: {exc}"


def cli_outcome(rc: int, stdout: str) -> tuple[str | None, str | None]:
    if rc not in CLI_CODES:
        return None, f"exit code {rc}"
    return f"exit={rc}\n{stdout}", None


class References:
    """Recorded answer digests of one workload, keyed by (cell, pool index)."""

    def __init__(self, cells: dict[str, str]):
        self.cells = cells

    @staticmethod
    def load(workload: str) -> "References":
        path = REFERENCE_DIR / f"{workload}.json"
        with open(path, "r", encoding="utf-8") as handle:
            return References(json.load(handle)["cells"])

    def get(self, cell: str, index: int) -> str | None:
        answers = self.cells.get(cell, "")
        ref = answers[DIGEST_CHARS * index:DIGEST_CHARS * (index + 1)]
        return ref or None


def judge(text: str | None, reason: str | None, reference: str | None,
          checks=()) -> str | None:
    """None when the op passes, else why it failed.

    `checks` are zero-argument callables run only for a matching outcome;
    each returns None or a failure reason.
    """
    if reason is not None:
        return reason
    if reference is None:
        return "no reference answer"
    if digest(text) != reference:
        return f"answer differs from the reference: {text[:120]!r}"
    for check in checks:
        problem = check()
        if problem is not None:
            return problem
    return None
