"""Exact combinatorics of Whittaker-module parameters over gl(m|n),
osp(2|2n), p(n), osp(3|2) and reductive even parts: root data, Weyl dot
action, canonical simple parameters, typicality, block labels, KL
multiplicities, and brute-force box validation."""

from .blocks import BlockLabel, LinkStatus, Typicality, block_label, same_block, typicality
from .errors import (CapExceededError, ConstructionError, DimensionMismatchError,
                     MissingTableEntryError, SuperlinkError, UnsupportedInputError)
from .kl import (FiniteWeylGroup, KLPolynomial, MultTable, bruhat_leq,
                 builtin_verma_table, gamma_summation_set, kl_polynomial,
                 load_mult_table, verma_mult, whittaker_length, whittaker_mult)
from .oracle import (LinkageGenerators, PartitionReport, WeightBox,
                     bfs_linkage_closure, kl_cross_check, partition_box,
                     verma_series_rank_small)
from .root_data import Root, RootDatum, bilinear, build_root_datum, is_integral, pairing_coroot
from .weights import Weight, format_weight, parse_weight
from .weyl import (WeylElement, antidominant_rep, dot, is_antidominant, is_dominant,
                   longest_element, orbit_dot, reduced_word, reflect, reflection_element,
                   stabilizer_roots, weyl_order)
from .whittaker import (SimpleWhittakerParam, WhittakerCharacter, classify_simple,
                        dominant_partner, in_X, in_X0, upsilon_of)

__version__ = "0.1.0"
