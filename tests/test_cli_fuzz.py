"""Fuzz of `cli.main` in process, over every subcommand.

Each argv names a datum of rank <= 4 (or a malformed one) and draws every
other value from the literal alphabet of its flag: weights, signed cycles,
characters, boxes and KL words, well formed or not.  Whatever the input,
the CLI answers with a documented exit code: 0, 2 (usage) or 3
(unsupported), and 1 only from `validate` reporting `sound: false`.  No
exception escapes `main`, and an exit 0 in JSON mode prints exactly one
JSON line."""
import contextlib
import io
import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superlink.cli import main  # noqa: E402

BOX_CAP_CONF = str(Path(__file__).resolve().parent / "golden" / "box_cap.conf")
# (datum flags, weight dimension); None marks a malformed datum, refused
# (exit 3) or a usage error (exit 2)
DATA = [(["--family", "gl", "--m", "1", "--n", "1"], 2),
        (["--family", "gl", "--m", "2", "--n", "1"], 3),
        (["--family", "gl", "--m", "2", "--n", "2"], 4), (["--family", "osp2", "--n", "1"], 2),
        (["--family", "osp2", "--n", "3"], 4), (["--family", "p", "--n", "2"], 2),
        (["--family", "p", "--n", "4"], 4), (["--family", "osp32"], 2),
        (["--family", "reductive", "--factors", "A1"], 2),
        (["--family", "reductive", "--factors", "A3"], 4),
        (["--family", "reductive", "--factors", "C2"], 2),
        (["--family", "reductive", "--factors", "A1xC1"], 3),
        (["--family", "gl", "--m", "0", "--n", "1"], None), (["--family", "p", "--n", "1"], None),
        (["--family", "reductive", "--factors", "B2"], None),
        (["--family", "reductive"], None), (["--family", "q", "--n", "2"], None),
        (["--family", "osp2", "--n", "x"], None)]


def _text(alphabet, max_size=7):
    return st.text(alphabet, max_size=max_size)


INTEGERS = st.sampled_from(["0", "1", "-1", "2", "-2", "3", "-4"])
RATIONALS = st.one_of(INTEGERS, st.sampled_from(["1/2", "-1/2", "-3/2", "1/3", "2/0", "0.5",
                                                 "1_0", " 1e1 ", "e"]))


@st.composite
def weights(draw, dim):
    """A weight literal: dim small integers or rationals, some other number
    of them, or arbitrary text over the literal alphabet."""
    kind = draw(st.integers(0, 4))
    if kind < 4:
        count = dim if dim and kind < 3 else draw(st.integers(1, 5))
        coords = draw(st.lists(INTEGERS if kind < 2 else RATIONALS,
                               min_size=count, max_size=count))
        seps = draw(st.lists(st.sampled_from([",", ",", "|", ";"]),
                             min_size=count - 1, max_size=count - 1))
        return "".join(c + sep for c, sep in zip(coords, seps + [""]))
    return draw(_text("0123456789-/,|;._e "))


CYCLES = st.one_of(st.sampled_from(["e", "", "()", "1", "(1 2)", "(1 -1)", "(2 -2)",
                                    "(1 2 3)", "(1,2)(3 -3)", "(3 4)", "(1 2"]),
                   _text("()0123456789-, e"))
ZETAS = st.one_of(st.sampled_from(["all", "none", "full", "0", "", "1", "2", "1,2", "1,3",
                                   "3", "5", "x"]),
                  _text("0123456789, -"))
BOXES = st.one_of(st.sampled_from([" -1..1", " 0..1", " -2..1", " 1..0", "0..0, -1..1",
                                   " -1/2..1/2", "1..", "..", ""]),
                  _text("0123456789-.,/ ", 6))
WORDS = st.one_of(st.sampled_from(["e", "", "1", "2,1", "1,2,1", "3,2,1", "5", "0"]),
                  _text("0123456789, e"))


# per subcommand, its value flags, `?` marking an optional one (klpoly is
# drawn on its own)
COMMANDS = {"root-data": [], "dot": ["w", "weight"], "antidom": ["weight", "zeta?"],
            "stab": ["weight"], "classify": ["zeta", "weight"], "upsilon": ["nu"],
            "in-x": ["nu", "weight"], "typicality": ["weight"], "block-label": ["weight"],
            "same-block": ["weight", "mu"], "enumerate-block": ["weight", "box", "anchor?"],
            "klpoly": [], "mult": ["weight", "zeta"], "validate": ["box", "anchor?"]}
VALUES = {"w": lambda dim: CYCLES, "weight": weights, "mu": weights, "nu": weights,
          "zeta": lambda dim: ZETAS, "zeta?": lambda dim: st.one_of(st.none(), ZETAS),
          "box": lambda dim: BOXES, "anchor?": lambda dim: st.one_of(st.none(), weights(dim))}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    if command == "klpoly":
        argv = ["klpoly", "--type", draw(st.sampled_from(["a", "c", "a", "c", "b"])),
                f"--rank={draw(st.sampled_from([3, 2, 4, 1, 3, 0, -1]))}",
                f"--x={draw(WORDS)}", f"--w={draw(WORDS)}"]
    else:
        flags, dim = draw(st.sampled_from(DATA))
        argv = [command, *flags]
        for flag in COMMANDS[command]:
            value = draw(VALUES[flag](dim))
            if value is not None:
                argv.append(f"--{flag.rstrip('?')}={value}")
        if command == "mult":
            argv += draw(st.sampled_from([["--length"], [f"--mu={draw(weights(dim))}"], []]))
        if command == "validate" and draw(st.booleans()):
            argv.append("--no-enlarge")
        if command in ("validate", "enumerate-block") and draw(st.integers(0, 4)) == 0:
            argv.append(f"--config={BOX_CAP_CONF}")
    return argv + draw(st.sampled_from([[], [], ["--format", "text"], ["--format", "json"]]))


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


def test_cli_fuzz(hypothesis_home):
    seen = set()

    @settings(database=None, derandomize=True, max_examples=600, deadline=None)
    @given(argvs())
    def answers(argv):
        code, stdout = _invoke(argv)
        seen.add((argv[0], code))
        if code == 1:
            assert argv[0] == "validate", argv
            assert '"sound":false' in stdout or "sound=False" in stdout, argv
            return
        assert code in (0, 2, 3), (argv, code)
        if code == 0 and "text" not in argv:
            lines = stdout.splitlines()
            assert len(lines) == 1 and stdout.endswith("\n"), argv
            assert isinstance(json.loads(lines[0]), dict), argv

    answers()
    # every subcommand answers, and some inputs are refused either way
    assert {command for command, code in seen if code == 0} == set(COMMANDS)
    assert {code for _, code in seen} >= {0, 2, 3}
