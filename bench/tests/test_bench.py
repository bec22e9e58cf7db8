"""Tests of the benchmark itself: generator, correctness gate, tracer.

    python3 -m pytest bench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import ops  # noqa: E402
from workloads import (FAMILIES, GL44_RHO, HELD_OUT_SEED, WORKLOADS, Stream,  # noqa: E402
                       pool_entry)


def _ops(workload: str, seed: int, n: int) -> list[dict]:
    stream = Stream(workload, seed)
    return [stream.next_op() for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _ops(workload, 3, 200) == _ops(workload, 3, 200)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_keeps_the_mix_and_changes_the_inputs(workload):
    wl = WORKLOADS[workload]
    n = 2 * len(wl.schedule) + len(wl.events)
    dev, held = _ops(workload, 1, n), _ops(workload, HELD_OUT_SEED, n)
    assert sorted(op["cell"] for op in dev) == sorted(op["cell"] for op in held)
    inputs = lambda op: {k: v for k, v in op.items() if k != "index"}
    different = sum(inputs(a) != inputs(b) for a, b in zip(dev, held))
    assert different > 0.8 * n


def test_family_tables_match_the_library():
    import superlink
    for key, fam in FAMILIES.items():
        d = superlink.build_root_datum(fam.build[0], **fam.build[1])
        assert fam.rho0 == d.rho0.coords, key
        assert fam.blocks == d.blocks, key
        assert fam.simple == len(d.simple_even), key
    gl44 = superlink.build_root_datum("gl", m=4, n=4)
    assert GL44_RHO == gl44.rho.coords


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_references_cover_every_pool_entry(workload):
    wl = WORKLOADS[workload]
    refs = gate.References.load(workload)
    for cell in wl.cells():
        assert len(refs.cells[cell]) == gate.DIGEST_CHARS * wl.pool(cell), cell


def _run(workload: str, op: dict, session):
    prep = ops.prepare(op, session)
    try:
        return prep, prep.call(), None
    except Exception as error:
        return prep, None, error


@pytest.fixture(scope="module")
def sweep_session():
    return ops.Session("sweep")


def test_gate_flags_a_perturbed_reference(sweep_session):
    refs = gate.References.load("sweep")
    for cell in ("classify/gl22", "block_label/p4", "same_block/osp32"):
        op = pool_entry("sweep", cell, 7)
        prep, value, exc = _run("sweep", op, sweep_session)
        reference = refs.get(cell, 7)
        assert prep.judge(value, exc, reference) is None
        perturbed = format(int(reference, 16) ^ 1, f"0{gate.DIGEST_CHARS}x")
        assert "differs from the reference" in prep.judge(value, exc, perturbed)
        assert prep.judge(value, exc, None) == "no reference answer"


def test_expected_refusal_passes_and_unexpected_one_fails(sweep_session):
    refs = gate.References.load("sweep")
    op = pool_entry("sweep", "classify/gl32/nonint", 0)
    prep, value, exc = _run("sweep", op, sweep_session)
    assert type(exc).__name__ == "UnsupportedInputError"
    assert prep.judge(value, exc, refs.get(op["cell"], 0)) is None
    # the same refusal where the reference holds an answer is a failure
    answered = refs.get("classify/gl32", 0)
    assert prep.judge(value, exc, answered) is not None


def test_unexpected_exception_is_a_failure():
    canon = str
    text, reason = gate.outcome_text(None, ZeroDivisionError("division by zero"), canon)
    assert text is None and reason.startswith("unexpected ZeroDivisionError")
    # no reference can turn it into a pass
    assert gate.judge(text, reason, gate.digest("refused:ZeroDivisionError")) is not None
    from superlink import UnsupportedInputError
    text, reason = gate.outcome_text(None, UnsupportedInputError("refused"), canon)
    assert (text, reason) == ("refused:UnsupportedInputError", None)


def test_cli_exit_codes():
    assert gate.cli_outcome(1, "{}")[1] == "exit code 1"
    assert gate.cli_outcome(2, "")[1] == "exit code 2"
    text, reason = gate.cli_outcome(3, "")
    assert reason is None and gate.judge(text, reason, gate.digest("exit=3\n")) is None


def test_independent_checks_run_after_a_matching_answer():
    calls = []
    failing = lambda: calls.append(1) or "unsound"
    assert gate.judge("x", None, gate.digest("x"), [failing]) == "unsound"
    assert gate.judge("y", None, gate.digest("x"), [failing]).startswith("answer differs")
    assert calls == [1]


def _worker(workload: str, n: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "5",
         "--mode", "run", "--ops", str(n), "--trace", "1",
         "--spawned-ns", str(time.monotonic_ns())],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_runs_report_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    sweep, validate = _worker("sweep", 60), _worker("validate", 4)
    for run in (sweep, validate):
        assert run["failed"] == 0, run["failures"]
        assert set(run["trace"]) == names
    assert sweep["trace"]["root_data.pairing_coroot.calls"][0] > 0
    assert sweep["trace"]["oracle.bfs.edges"][0] == 0
    assert validate["trace"]["oracle.bfs.closures"][0] > 0
    assert validate["trace"]["cli.calls"][0] == 4
    assert 0 < validate["trace"]["oracle.bfs.new_ratio"][0] <= 1


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_log_scales_by_the_samples_near_an_op():
    import hostspeed
    log = hostspeed.SpeedLog()
    log.at, log.unit_s = [0.0, 0.5, 10.0, 10.5, 11.0], [1e-3, 1e-3, 2e-3, 2e-3, 4e-3]
    ref = hostspeed.REFERENCE_UNIT_S
    assert log.scale(0.2, 0.3) == pytest.approx(ref / 1e-3)
    assert log.scale(10.2, 10.3) == pytest.approx(ref / 2e-3)
    # far from every sample: the nearest ones
    assert log.scale(5.0, 5.0) == pytest.approx(ref / 1.5e-3)
