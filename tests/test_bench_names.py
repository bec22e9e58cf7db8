"""The benchmark calls the library by name: every `lib.<name>` and
`lib.<Class>.<attr>` that bench/ops.py reads must resolve on `superlink`,
so that deleting a library name the benchmark uses fails here and not in
the next benchmark run."""
import ast
import inspect
from pathlib import Path

import superlink
from superlink import cli  # noqa: F401  (ops.py reads superlink.cli)

OPS = Path(__file__).resolve().parents[1] / "bench" / "ops.py"
LIBRARY = {"lib", "superlink"}  # names ops.py binds to the package
HOLDERS = {"lib": (), "cli": ("cli",)}  # attributes (s.lib, s.cli) holding the library


def _path(node, aliases):
    """The path on `superlink` that an attribute chain names, or None when
    the chain is not rooted at the library."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    attrs.reverse()
    if not isinstance(node, ast.Name):
        return None
    if node.id in LIBRARY:
        return tuple(attrs)
    if node.id in aliases:
        return aliases[node.id] + tuple(attrs)
    if attrs and attrs[0] in HOLDERS:
        return HOLDERS[attrs[0]] + tuple(attrs[1:])
    return None


def library_reads(source: str) -> set[tuple[str, ...]]:
    """Every path on `superlink` that source reads, per top-level function
    or method; a local name assigned a library path is followed within it."""
    tree = ast.parse(source)
    scopes = [node for top in tree.body
              for node in (top.body if isinstance(top, ast.ClassDef) else [top])
              if isinstance(node, ast.FunctionDef)]
    reads = set()
    for scope in scopes:
        aliases = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                path = _path(node.value, aliases)
                if path is not None:
                    aliases[node.targets[0].id] = path
        inner = {id(node.value) for node in ast.walk(scope) if isinstance(node, ast.Attribute)}
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                path = _path(node, aliases)
                if path:
                    reads.add(path)
    return reads


def _missing(paths) -> list[str]:
    """The paths that do not resolve on `superlink`: each step must exist,
    following modules and classes (`lib.<name>`, `lib.<Class>.<attr>`)."""
    out = []
    for path in paths:
        obj = superlink
        for depth, name in enumerate(path):
            if depth and not (inspect.ismodule(obj) or inspect.isclass(obj)):
                break  # an attribute of a value, not of the library
            if not hasattr(obj, name):
                out.append(".".join(path))
                break
            obj = getattr(obj, name)
    return out


def test_benchmark_names_resolve():
    reads = library_reads(OPS.read_text(encoding="utf-8"))
    assert not _missing(reads), _missing(reads)
    # not vacuous: the reads of each workload are found
    dotted = {".".join(path) for path in reads}
    assert {"build_root_datum", "FiniteWeylGroup.symmetric", "FiniteWeylGroup.type_c",
            "WhittakerCharacter.from_indices", "classify_simple", "kl_cross_check",
            "verma_series_rank_small", "cli.main"} <= dotted


def test_removed_names_are_caught():
    source = '''
def prepare(s):
    lib = s.lib
    W = lib.FiniteWeylGroup
    return lib.enumerate_subgroup, W.left_mult, s.cli.default_generators, lib.dot
'''
    assert sorted(_missing(library_reads(source))) == [
        "FiniteWeylGroup.left_mult", "cli.default_generators", "enumerate_subgroup"]
