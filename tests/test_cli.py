import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superlink import cli
from superlink.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_block_label_p2(capsys):
    code, out, _ = run(capsys, ["block-label", "--family", "p", "--n", "2",
                                "--weight", "0,0"])
    assert code == 0
    assert out.strip() == '{"family":"p","j":1}'


def test_classify_gl21(capsys):
    payload = run_json(capsys, ["classify", "--family", "gl", "--m", "2", "--n", "1",
                                "--zeta", "1", "--weight", "0,-2|5"])
    assert payload["rep"] == "-3,1|5"
    assert payload["zeta"] == [1]


def test_dot_p2(capsys):
    payload = run_json(capsys, ["dot", "--family", "p", "--n", "2",
                                "--w", "(1 2)", "--weight", "0,0"])
    assert payload["result"] == "-1,1"


def test_dot_text_mode(capsys):
    code, out, _ = run(capsys, ["dot", "--family", "p", "--n", "2",
                                "--w", "(1 2)", "--weight", "0,0",
                                "--format", "text"])
    assert code == 0 and out.strip() == "-1,1"


def test_weight_round_trip_through_json(capsys):
    payload = run_json(capsys, ["antidom", "--family", "osp2", "--n", "2",
                                "--weight", "0;1,-3"])
    rep = payload["rep"]
    payload2 = run_json(capsys, ["antidom", "--family", "osp2", "--n", "2",
                                 "--weight", rep])
    assert payload2["rep"] == rep
    assert payload2["witness"] == "e"


def test_root_data_json(capsys):
    payload = run_json(capsys, ["root-data", "--family", "p", "--n", "2"])
    assert payload["rho0"] == "1,0"
    assert payload["family"] == "p"


GOLDEN_OSP32 = (
    '{"schema":1,"family":"osp32","label":"osp(3|2)","dim":2,'
    '"form_signature":["-1","1"],"simple_even":["2,0","0,1"],'
    '"even_positive":["2,0","0,1"],'
    '"odd_roots":["1,1","1,-1","1,0","-1,-1","-1,1","-1,0"],'
    '"isotropic":["1,1","1,-1","-1,-1","-1,1"],'
    '"rho0":"1,1/2","rho1":"3/2,0","rho":"-1/2,1/2"}'
)


def test_root_data_golden_osp32(capsys):
    code, out, _ = run(capsys, ["root-data", "--family", "osp32"])
    assert code == 0
    assert out.strip() == GOLDEN_OSP32


def test_upsilon_and_stab(capsys):
    payload = run_json(capsys, ["upsilon", "--family", "p", "--n", "2",
                                "--nu=-1,0"])
    assert payload["indices"] == [1]
    payload = run_json(capsys, ["stab", "--family", "osp2", "--n", "1",
                                "--weight=0;-1"])
    assert payload["stabilizer_roots"] == ["0;2"]


def test_in_x_osp32(capsys):
    payload = run_json(capsys, ["in-x", "--family", "osp32",
                                "--nu=-1,-1/2", "--weight=0,-2"])
    assert payload == {"in_x0": False, "in_x": True}


def test_typicality_and_same_block(capsys):
    payload = run_json(capsys, ["typicality", "--family", "gl", "--m", "1",
                                "--n", "1", "--weight", "3,-3"])
    assert payload == {"kind": "atypical", "degree": 1}
    payload = run_json(capsys, ["same-block", "--family", "p", "--n", "2",
                                "--weight", "0,0", "--mu", "0,2"])
    assert payload == {"status": "linked-sufficient-only"}


def test_klpoly(capsys):
    payload = run_json(capsys, ["klpoly", "--type", "a", "--rank", "3",
                                "--x", "2", "--w", "2,1,3,2"])
    assert payload["coeffs"] == [1, 1]


def test_klpoly_honours_configured_kl_cap(capsys, tmp_path, monkeypatch):
    """A configured kl_cap replaces the built-in one both ways.  The built-in
    cap is lowered to |S4| so that S5 (rank 4) stands in for a group above
    it; no group above 40,320 is built."""
    from superlink import kl
    monkeypatch.setattr(kl, "KL_GROUP_CAP", 24)
    argv = ["klpoly", "--type", "a", "--rank", "4", "--x", "e", "--w", "1,2,3,4"]
    assert run(capsys, argv) == (3, "", "error: |W| = 120 exceeds the cap 24\n")
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("kl_cap=120\n")
    assert run_json(capsys, [*argv, "--config", str(cfg)]) == {"coeffs": [1], "poly": "1"}
    cfg.write_text("kl_cap=119\n")
    assert run(capsys, [*argv, "--config", str(cfg)]) \
        == (3, "", "error: |W| = 120 exceeds configured cap\n")
    monkeypatch.undo()
    code, out, err = run(capsys, ["klpoly", "--type", "c", "--rank", "8",
                                  "--x", "e", "--w", "e"])
    assert (code, out, err) == (3, "", "error: |W| = 10321920 exceeds the cap 40320\n")


def test_klpoly_calls_share_one_index(capsys, monkeypatch):
    """klpoly builds its datum through `_root_datum`, so repeated calls read
    the group index kept on that one datum."""
    from superlink import weyl
    built = []
    init = weyl._Index.__init__
    monkeypatch.setattr(weyl._Index, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    cli._root_datum.cache_clear()
    argv = ["klpoly", "--type", "a", "--rank", "3", "--x", "2", "--w", "2,1,3,2"]
    assert run_json(capsys, argv) == run_json(capsys, argv) == {"coeffs": [1, 1], "poly": "1 + q"}
    assert len(built) == 1


def test_klpoly_calls_share_one_kl_memo(capsys, monkeypatch):
    """klpoly reads the datum's shared group, so repeated calls reuse its
    KL memo as well as its index."""
    from superlink import kl
    built = []
    init = kl._KLMemo.__init__
    monkeypatch.setattr(kl._KLMemo, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    cli._root_datum.cache_clear()
    argv = ["klpoly", "--type", "c", "--rank", "3", "--x", "2", "--w", "2,1,3,2,1,3,2"]
    assert run_json(capsys, argv) == run_json(capsys, argv) \
        == {"coeffs": [1, 1, 1], "poly": "1 + q + q^2"}
    assert len(built) == 1


def test_klpoly_refuses_a_large_rank_before_building_the_datum(capsys, tmp_path, monkeypatch):
    """|W| of A160 is 161!: klpoly refuses it from the closed-form order,
    with the texts it gave when it built the datum first (36 s); a rank
    below 1 keeps the datum's own refusal."""
    import math
    import time
    built = []
    monkeypatch.setattr(cli, "build_root_datum", lambda *a, **kw: built.append(a))
    cli._root_datum.cache_clear()
    argv = ["klpoly", "--type", "a", "--rank", "160", "--x", "e", "--w", "e"]
    start = time.perf_counter()
    assert run(capsys, argv) == (
        3, "", f"error: |W| = {math.factorial(161)} exceeds the cap 40320\n")
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("kl_cap=50000\n")
    assert run(capsys, [*argv, "--config", str(cfg)]) == (
        3, "", f"error: |W| = {math.factorial(161)} exceeds configured cap\n")
    assert time.perf_counter() - start < 1
    assert built == []
    monkeypatch.undo()
    for rank in ("0", "-1"):
        code, out, err = run(capsys, ["klpoly", "--type", "c", "--rank", rank,
                                      "--x", "e", "--w", "e"])
        assert (code, out, err) == (
            3, "", f"error: bad reductive factor ('C', {rank}); use A<k> or C<k>\n")


@pytest.mark.parametrize("kind, rank, order", [
    ("a", 1557, str(math.factorial(1558))), ("a", 1558, "1559!"), ("a", 1000000, "1000001!"),
    ("c", 1423, str(2 ** 1423 * math.factorial(1423))), ("c", 1424, "2^1424 1424!")],
    ids=["A1557", "A1558", "A1000000", "C1423", "C1424"])
def test_klpoly_names_an_unprintable_order_by_its_formula(capsys, tmp_path, kind, rank, order):
    """An order with more digits than Python prints (4,300) is refused as a
    formula, and one it prints is refused with its exact value; no factorial
    past that size is multiplied out, so each refusal takes under a second."""
    import time
    argv = ["klpoly", "--type", kind, "--rank", str(rank), "--x", "e", "--w", "e"]
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("kl_cap=40320\n")
    for extra, text in (([], "exceeds the cap 40320"),
                        (["--config", str(cfg)], "exceeds configured cap")):
        start = time.perf_counter()
        assert run(capsys, [*argv, *extra]) == (3, "", f"error: |W| = {order} {text}\n")
        assert time.perf_counter() - start < 1


def test_dot_refuses_malformed_cycles(capsys):
    argv = ["dot", "--family", "gl", "--m", "2", "--n", "1", "--weight=1,0,0"]
    for w in ("garbage", "(1 2", "1 2)", "(1 2)x"):
        code, out, err = run(capsys, [*argv, "--w", w])
        assert (code, out, err) == (3, "", f"error: not a signed-cycle literal: {w!r}\n")
    assert run_json(capsys, [*argv, "--w", "(1 2)"]) == {"result": "-1,2|0"}


def test_mult_and_length(capsys):
    payload = run_json(capsys, ["mult", "--family", "reductive", "--factors", "A1",
                                "--weight", "0,0", "--zeta", "all", "--length"])
    assert payload == {"length": 1}
    payload = run_json(capsys, ["mult", "--family", "reductive", "--factors", "A1",
                                "--weight", "0,0", "--zeta", "none", "--mu=-1,1"])
    assert payload == {"multiplicity": 1}


def test_mult_with_user_table(capsys, tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("# toy table\n0,-2|5 -3,1|5 1\n0,-2|5 0,-2|5 1\n")
    payload = run_json(capsys, ["mult", "--family", "gl", "--m", "2", "--n", "1",
                                "--weight", "0,-2|5", "--zeta", "1", "--length",
                                "--mult-table", str(table)])
    assert payload == {"length": 1}


def test_validate_exits_zero_and_reports(capsys):
    code, out, _ = run(capsys, ["validate", "--family", "p", "--n", "2",
                                "--box", " -4..4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sound"] is True
    assert len(payload["components"]) == 3


def test_unsupported_exits_3(capsys):
    # a zero denominator in a weight or a box literal is malformed input too
    for argv, message in (
            (["block-label", "--family", "p", "--n", "2", "--weight", "0,1/2"], ""),
            (["block-label", "--family", "p", "--n", "2", "--weight", "1/0,0"], ""),
            (["validate", "--family", "p", "--n", "2", "--box= 0..1/0"], ""),
            (["mult", "--family", "reductive", "--factors", "A1", "--weight=-1,1",
              "--zeta", "none"], "mult needs --mu or --length\n")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: " + message)


def test_usage_exits_2(capsys):
    for argv in (["block-label", "--family", "nosuch", "--weight", "0"],
                 # --jobs was removed: the label pass is single-threaded
                 ["validate", "--family", "p", "--n", "2", "--box", "0..1", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # a range without exactly one ".." is a malformed flag, named in the message
    for argv in (["validate", "--family", "p", "--n", "2", "--box=4"],
                 ["validate", "--family", "p", "--n", "2", "--box=0..1, 2"],
                 ["enumerate-block", "--family", "p", "--n", "2", "--weight=0,0",
                  "--box=0..1..2"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --box" in capsys.readouterr().err


def test_klpoly_letter_out_of_range(capsys):
    # letters are 1-based on the command line, and so is the message
    for x, message in (("7", "word letter 7 out of range 1..2"),
                       ("1,0", "word letter 0 out of range 1..2")):
        code, out, err = run(capsys, ["klpoly", "--type", "a", "--rank", "2",
                                      "--x", x, "--w", "e"])
        assert (code, out, err) == (3, "", f"error: {message}\n")


def test_config_overrides(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    # box_cap is enforced; subgroup_cap is no longer a config key
    for text in ("box_cap=10\n", "subgroup_cap=10\n", "# caps\n\n  box_cap = 10  # tight\n"):
        cfg.write_text(text)
        code, _, err = run(capsys, ["validate", "--family", "p", "--n", "2",
                                    "--box", " -6..6", "--config", str(cfg)])
        assert code == 3
        assert "cap" in err


def test_validate_honours_configured_box_cap(capsys, tmp_path, monkeypatch):
    """A configured box_cap bounds validate both ways: the CLI refuses above
    it, and partition_box receives it in place of its default."""
    from superlink import oracle
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("box_cap=30\n")
    argv = ["validate", "--family", "p", "--n", "2", "--config", str(cfg)]
    code, out, err = run(capsys, [*argv, "--box= -3..3"])  # 49 points
    assert (code, out, err) == (3, "", "error: box holds 49 points, cap is 30\n")
    code, out, _ = run(capsys, [*argv, "--box= -2..2"])  # 25 points
    assert code == 0 and json.loads(out)["points"] == 25
    caps = []
    real = oracle._box_labels
    monkeypatch.setattr(oracle, "_box_labels",
                        lambda datum, box, cap: caps.append(cap) or real(datum, box, cap))
    cfg.write_text(f"box_cap={2 * oracle.BOX_CAP}\n")
    assert run(capsys, [*argv, "--box= -1..1"])[0] == 0
    assert run(capsys, argv[:5] + ["--box= -1..1"])[0] == 0  # no --config
    assert caps == [2 * oracle.BOX_CAP, oracle.BOX_CAP]


def test_validate_refuses_an_enlarged_box_above_the_cap(capsys, tmp_path):
    """The enlargement pass checks its box against the cap before closing
    anything in it, and --no-enlarge skips it."""
    from superlink.oracle import BOX_CAP
    argv = ["validate", "--family", "osp2", "--n", "2", "--box=0..3,-1..2,-3..0"]
    code, default, _ = run(capsys, argv)
    payload = json.loads(default)
    assert code == 0 and payload["points"] == 64 and len(payload["label_splits"]) == 3
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("box_cap=100\n")
    assert run(capsys, [*argv, "--config", str(cfg)]) \
        == (3, "", "error: enlarged box holds 512 points, cap is 100\n")
    code, out, _ = run(capsys, [*argv, "--config", str(cfg), "--no-enlarge"])
    assert code == 0
    assert out == run(capsys, [*argv, "--no-enlarge"])[1]
    assert [s["merged_after_enlargement"] for s in json.loads(out)["label_splits"]] \
        == [None] * 3
    cfg.write_text("box_cap=512\n")
    assert run(capsys, [*argv, "--config", str(cfg)]) == (0, default, "")
    # 328 points whose enlarged box would hold 6,001,128
    p4 = ["validate", "--family", "p", "--n", "4", "--box=0..1,0..1,0..1,-20..20"]
    assert run(capsys, p4) \
        == (3, "", f"error: enlarged box holds 6001128 points, cap is {BOX_CAP}\n")
    assert run(capsys, [*p4, "--no-enlarge"])[0] == 0


def test_mult_honours_kl_cap(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("kl_cap=1\n")
    for query in (["--length"], ["--mu=-3,0,4"]):
        code, out, err = run(capsys, ["mult", "--family", "reductive", "--factors", "A2",
                                      "--weight=-3,0,4", "--zeta", "none", *query,
                                      "--config", str(cfg)])
        assert code == 3 and out == ""
        assert "cap" in err


# one valid argv per command that reads no cap
_CAPLESS = {
    "root-data": ["--family", "p", "--n", "2"],
    "dot": ["--family", "p", "--n", "2", "--w", "(1 2)", "--weight=1,0"],
    "antidom": ["--family", "p", "--n", "2", "--weight=1,0"],
    "stab": ["--family", "osp2", "--n", "1", "--weight=0|0"],
    "classify": ["--family", "p", "--n", "2", "--zeta", "1", "--weight=1,0"],
    "upsilon": ["--family", "p", "--n", "2", "--nu=0,0"],
    "in-x": ["--family", "p", "--n", "2", "--nu=0,0", "--weight=0,0"],
    "typicality": ["--family", "gl", "--m", "1", "--n", "1", "--weight=0|0"],
    "block-label": ["--family", "p", "--n", "2", "--weight=0,0"],
    "same-block": ["--family", "p", "--n", "2", "--weight=0,0", "--mu=1,1"],
}

# one argv per command that reads a cap, each within every cap
_CAPPED = {
    "enumerate-block": ["--family", "p", "--n", "2", "--weight=0,0", "--box=0..1"],
    "klpoly": ["--type", "a", "--rank", "2", "--x", "e", "--w", "1"],
    "mult": ["--family", "reductive", "--factors", "A1", "--weight=-1,1", "--zeta",
             "none", "--length"],
    "validate": ["--family", "p", "--n", "2", "--box=0..1"],
}


def test_every_command_is_classed_by_the_caps_it_reads():
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(_CAPLESS) | set(_CAPPED)


@pytest.mark.parametrize("command", sorted(_CAPLESS))
def test_commands_without_a_cap_refuse_config(capsys, command):
    """A command that reads no cap has no --config flag: argparse refuses it
    as it does any unknown flag, and the command itself still runs."""
    argv = [command, *_CAPLESS[command]]
    assert run(capsys, argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", "caps.cfg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config caps.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_CAPPED))
def test_commands_with_a_cap_read_config(capsys, tmp_path, command):
    """Exactly the four cap commands take --config, and each opens the file:
    a file setting both caps leaves the answer unchanged, and an unknown key
    or a missing file is refused with exit 3."""
    argv = [command, *_CAPPED[command]]
    code, default, _ = run(capsys, argv)
    assert code == 0
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("box_cap=100\nkl_cap=100\n")
    assert run(capsys, [*argv, "--config", str(cfg)]) == (0, default, "")
    cfg.write_text("bogus=1\n")
    assert run(capsys, [*argv, "--config", str(cfg)]) \
        == (3, "", "error: unknown config key 'bogus'\n")
    code, out, err = run(capsys, [*argv, "--config", str(tmp_path / "missing.cfg")])
    assert (code, out) == (3, "") and err.startswith("error: [Errno 2]")


@pytest.mark.parametrize("config", [None, "box_cap=30\n"])
def test_box_commands_word_an_over_cap_box_alike(capsys, tmp_path, config):
    """validate and enumerate-block refuse a box above the cap with one text,
    naming its size and the cap in force, configured or not."""
    from superlink.oracle import BOX_CAP
    if config is None:
        extra, box, points, cap = [], "-60..60", 121 ** 3, BOX_CAP
    else:
        cfg = tmp_path / "caps.cfg"
        cfg.write_text(config)
        extra, box, points, cap = ["--config", str(cfg)], "-3..3", 7 ** 3, 30
    datum = ["--family", "gl", "--m", "2", "--n", "1", f"--box={box}", *extra]
    expected = (3, "", f"error: box holds {points} points, cap is {cap}\n")
    assert run(capsys, ["validate", *datum]) == expected
    assert run(capsys, ["enumerate-block", *datum, "--weight=0,0|0"]) == expected


def test_per_coordinate_box(capsys):
    payload = run_json(capsys, ["enumerate-block", "--family", "p", "--n", "2",
                                "--weight", "0,0", "--box", " -2..2, -1..1"])
    for text in payload["weights"]:
        w = [int(c) for c in text.split(",")]
        assert -2 <= w[0] <= 2 and -1 <= w[1] <= 1


def test_validate_osp32_uses_integral_lattice(capsys):
    # default anchor puts the eps coordinate on the half-integer lattice
    code, out, err = run(capsys, ["validate", "--family", "osp32",
                                  "--box", " -3..3"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["sound"] is True
    for comp in payload["components"]:
        coords = comp["representative"].split(",")
        assert "/2" in coords[1]  # half-integer eps coordinate


def test_explicit_anchor_flag(capsys):
    payload = run_json(capsys, ["validate", "--family", "p", "--n", "2",
                                "--box", " -2..2", "--anchor", "0,0"])
    assert payload["sound"] is True


def test_cli_caches_fill_lazily_once(capsys, monkeypatch):
    """The parser is built on the first main call and reused; each datum is
    built once per (family, m, n, factors); a refusal is not cached."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import superlink.cli as c; "
             "print(c._parser.cache_info().currsize, c._root_datum.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.stdout.split() == ["0", "0"], proc.stderr  # import builds neither

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    cli._root_datum.cache_clear()
    try:
        argv = ["block-label", "--family", "p", "--n", "2", "--weight=0,0"]
        assert run(capsys, argv)[0] == run(capsys, argv)[0] == 0
        assert built == [1]
        assert cli._root_datum.cache_info()[:2] == (1, 1)  # one hit, one build
        for _ in range(2):  # gl needs --m: exit 3 on every call
            code, out, err = run(capsys, ["root-data", "--family", "gl", "--n", "1"])
            assert (code, out, err) == (3, "", "error: gl(m|n) needs both m and n\n")
        assert cli._root_datum.cache_info().currsize == 1
    finally:
        cli._parser.cache_clear()
