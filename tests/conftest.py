import importlib
import pkgutil

import pytest

import superlink
from superlink import build_root_datum, root_data


@pytest.fixture(scope="session")
def gl11():
    return build_root_datum("gl", m=1, n=1)


@pytest.fixture(scope="session")
def gl21():
    return build_root_datum("gl", m=2, n=1)


@pytest.fixture(scope="session")
def gl22():
    return build_root_datum("gl", m=2, n=2)


@pytest.fixture(scope="session")
def osp22():
    return build_root_datum("osp2", n=1)


@pytest.fixture(scope="session")
def osp24():
    return build_root_datum("osp2", n=2)


@pytest.fixture(scope="session")
def p2():
    return build_root_datum("p", n=2)


@pytest.fixture(scope="session")
def p3():
    return build_root_datum("p", n=3)


@pytest.fixture(scope="session")
def osp32():
    return build_root_datum("osp32")


@pytest.fixture(scope="session")
def red_a1():
    return build_root_datum("reductive", factors="A1")


@pytest.fixture(scope="session")
def red_a2():
    return build_root_datum("reductive", factors="A2")


@pytest.fixture(scope="session")
def red_c2():
    return build_root_datum("reductive", factors="C2")


@pytest.fixture
def hypothesis_home(tmp_path):
    """Keep the constants cache hypothesis writes even without an example
    database out of the working directory."""
    from hypothesis.configuration import set_hypothesis_home_dir
    set_hypothesis_home_dir(tmp_path)
    yield
    set_hypothesis_home_dir(None)


@pytest.fixture
def integrality_calls(monkeypatch):
    """The argument tuples of every is_integral call a superlink module
    makes, counted by rebinding root_data's function in each module that
    imports it."""
    checked = root_data.is_integral
    calls = []
    counted = lambda *args: calls.append(args) or checked(*args)
    for info in pkgutil.iter_modules(superlink.__path__):
        module = importlib.import_module(f"superlink.{info.name}")
        if getattr(module, "is_integral", None) is checked:
            monkeypatch.setattr(module, "is_integral", counted)
    return calls
