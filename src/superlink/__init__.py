"""Exact combinatorics of Whittaker-module parameters over gl(m|n),
osp(2|2n), p(n), osp(3|2) and reductive even parts: root data, Weyl dot
action, canonical simple parameters, typicality, block labels, KL
multiplicities, and brute-force box validation.

`import superlink` loads the query core (weights, root data, the Weyl dot
action, block labels and Whittaker parameters) at once, since every
parameter or block query runs through it.  The KL engine (`kl`) and the
brute-force oracles (`oracle`, and `verma_oracle` under it) load on the
first read of one of their names, through the module `__getattr__` of PEP
562: a process that asks only parameter or block queries never compiles or
runs them.  `superlink.kl`, `superlink.oracle` and `superlink.verma_oracle`
resolve the same way, and `dir(superlink)` lists every name.
"""
from importlib import import_module as _import_module

from .blocks import BlockLabel, LinkStatus, Typicality, block_label, same_block, typicality
from .errors import (CapExceededError, ConstructionError, DimensionMismatchError,
                     MissingTableEntryError, SuperlinkError, UnsupportedInputError)
from .root_data import Root, RootDatum, bilinear, build_root_datum, is_integral, pairing_coroot
from .weights import Weight, format_weight, parse_weight
from .weyl import (WeylElement, antidominant_rep, dot, is_antidominant, is_dominant,
                   longest_element, orbit_dot, reduced_word, reflect, reflection_element,
                   stabilizer_roots, weyl_order)
from .whittaker import (SimpleWhittakerParam, WhittakerCharacter, classify_simple,
                        dominant_partner, in_X, in_X0, upsilon_of)

__version__ = "0.1.0"

# name -> the module that defines it, imported on the name's first read
_LAZY = {
    **dict.fromkeys(("FiniteWeylGroup", "KLPolynomial", "MultTable", "bruhat_leq",
                     "builtin_verma_table", "gamma_summation_set", "kl_polynomial",
                     "load_mult_table", "verma_mult", "whittaker_length", "whittaker_mult"),
                    "kl"),
    **dict.fromkeys(("LinkageGenerators", "PartitionReport", "WeightBox", "bfs_linkage_closure",
                     "kl_cross_check", "partition_box", "verma_series_rank_small"),
                    "oracle"),
    **{module: module for module in ("kl", "oracle", "verma_oracle")},
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
