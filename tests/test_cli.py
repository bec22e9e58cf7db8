import json

import pytest

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
    for argv in (["block-label", "--family", "p", "--n", "2", "--weight", "0,1/2"],
                 ["block-label", "--family", "p", "--n", "2", "--weight", "1/0,0"],
                 ["validate", "--family", "p", "--n", "2", "--box= 0..1/0"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error:")


def test_usage_exits_2():
    for argv in (["block-label", "--family", "nosuch", "--weight", "0"],
                 # --jobs was removed: the label pass is single-threaded
                 ["validate", "--family", "p", "--n", "2", "--box", "0..1", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_config_overrides(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    # box_cap is enforced; subgroup_cap is no longer a config key
    for text in ("box_cap=10\n", "subgroup_cap=10\n"):
        cfg.write_text(text)
        code, _, err = run(capsys, ["validate", "--family", "p", "--n", "2",
                                    "--box", " -6..6", "--config", str(cfg)])
        assert code == 3
        assert "cap" in err


def test_mult_honours_kl_cap(capsys, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("kl_cap=1\n")
    for query in (["--length"], ["--mu=-3,0,4"]):
        code, out, err = run(capsys, ["mult", "--family", "reductive", "--factors", "A2",
                                      "--weight=-3,0,4", "--zeta", "none", *query,
                                      "--config", str(cfg)])
        assert code == 3 and out == ""
        assert "cap" in err


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
