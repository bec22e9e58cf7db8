"""Which modules a process loads.  `import superlink` loads the query core
only; the KL engine and the oracles load on the first read of one of their
names.  Each check runs in a fresh interpreter, since this one already holds
every module."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superlink

SRC = Path(superlink.__file__).resolve().parents[1]
DEFERRED = ("superlink.cli", "superlink.kl", "superlink.oracle", "superlink.verma_oracle")

# every public name of the package when it imported all its modules at once
EXPORTED = [
    "BlockLabel", "CapExceededError", "ConstructionError", "DimensionMismatchError",
    "FiniteWeylGroup", "KLPolynomial", "LinkStatus", "LinkageGenerators",
    "MissingTableEntryError", "MultTable", "PartitionReport", "Root", "RootDatum",
    "SimpleWhittakerParam", "SuperlinkError", "Typicality", "UnsupportedInputError", "Weight",
    "WeightBox", "WeylElement", "WhittakerCharacter", "antidominant_rep",
    "bfs_linkage_closure", "bilinear", "block_label", "blocks", "bruhat_leq",
    "build_root_datum", "builtin_verma_table", "classify_simple", "dominant_partner", "dot",
    "errors", "format_weight", "gamma_summation_set", "in_X", "in_X0", "is_antidominant",
    "is_dominant", "is_integral", "kl", "kl_cross_check", "kl_polynomial", "load_mult_table",
    "longest_element", "oracle", "orbit_dot", "pairing_coroot", "parse_weight",
    "partition_box", "reduced_word", "reflect", "reflection_element", "root_data",
    "same_block", "stabilizer_roots", "typicality", "upsilon_of", "verma_mult",
    "verma_oracle", "verma_series_rank_small", "weights", "weyl", "weyl_order", "whittaker",
    "whittaker_length", "whittaker_mult",
]


def _run(code: str):
    """What `code` prints as JSON on its last line, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('superlink.'))))"


def test_parameter_and_block_queries_load_no_kl_engine_or_oracle():
    loaded = _run(f"""
import json, sys
import superlink
d = superlink.build_root_datum("gl", m=2, n=1)
lam = d.parse_weight("0,-2|5")
superlink.block_label(d, lam)
superlink.classify_simple(d, lam, superlink.WhittakerCharacter.from_indices(d, "1"))
{LOADED}""")
    assert "superlink.whittaker" in loaded
    assert not set(loaded) & set(DEFERRED)


@pytest.mark.parametrize("argv, wanted, absent", [
    (["validate", "--family", "gl", "--m", "2", "--n", "1", "--box=-1..1"],
     "superlink.oracle", ("superlink.kl", "superlink.verma_oracle")),
    (["klpoly", "--type", "a", "--rank", "2", "--x", "1", "--w", "1,2"],
     "superlink.kl", ("superlink.oracle", "superlink.verma_oracle")),
    (["block-label", "--family", "p", "--n", "2", "--weight=0,0"],
     "superlink.cli", ("superlink.kl", "superlink.oracle", "superlink.verma_oracle")),
])
def test_cli_commands_load_only_what_they_call(argv, wanted, absent):
    loaded = _run(f"""
import contextlib, io, json, sys
from superlink import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
{LOADED}""")
    assert wanted in loaded
    assert not set(loaded) & set(absent)


def test_every_exported_name_still_imports():
    """A bare import lists every name in dir(), a star import binds every
    name, and each resolves through `from superlink import ...`."""
    listed, starred = _run(f"""
import json
import superlink
listed = dir(superlink)
star = {{}}
exec("from superlink import *", star)
for name in {EXPORTED!r}:
    exec(f"from superlink import {{name}}")
print(json.dumps([listed, sorted(set(star) - {{"__builtins__"}})]))""")
    assert set(EXPORTED) <= set(listed)
    assert starred == EXPORTED


def test_a_deferred_name_loads_its_module_and_is_cached():
    """Reading a KL name loads kl and not the oracles, and binds the name on
    the package to the object kl defines."""
    same, cached, loaded = _run("""
import json, sys
import superlink
from superlink import kl_polynomial
same = kl_polynomial is superlink.kl.kl_polynomial
print(json.dumps([same, "kl_polynomial" in vars(superlink), sorted(sys.modules)]))""")
    assert same and cached
    assert "superlink.kl" in loaded
    assert not {"superlink.oracle", "superlink.verma_oracle"} & set(loaded)


def test_deferred_modules_resolve_as_attributes():
    got = _run("""
import json, types
import superlink
mods = [superlink.kl, superlink.oracle, superlink.verma_oracle]
print(json.dumps([isinstance(m, types.ModuleType) for m in mods] + [m.__name__ for m in mods]))""")
    assert got == [True] * 3 + ["superlink.kl", "superlink.oracle", "superlink.verma_oracle"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(superlink, "no_such_name")
    with pytest.raises(ImportError):
        from superlink import no_such_name  # noqa: F401
