"""bqkit: exact computations with bound quivers.

Homotopy relations and fundamental groups of admissible presentations,
transvections and dilatations, the quiver of homotopy relations with its
privileged source, universal Galois covers and smash products.
"""

from .errors import BqError
from .fields import Field
from .quiver import (Arrow, Bypass, Path, Quiver, Walk, enumerate_paths,
                     find_bypasses, find_double_bypasses, make_path, make_walk,
                     paths_between, trivial_path, trivial_walk)
from .dsl import parse_quiver, parse_path, parse_source, parse_walk
from .ideal import (Ideal, Relation, close_ideal, decompose_minimal,
                    ideals_equal, is_constricted, linear_combination,
                    make_relation,
                    support_equivalence)
from .homotopy import (GroupPresentation, HomotopyRelation, homotopy_relation,
                       relations_equal)
from .transform import (Derivation, Dilatation, PathAutomorphism, Transvection,
                        apply_automorphism, compose, decompose_DT,
                        exp_derivation, log_unipotent)
from .gamma import (GammaQuiver, check_lemma_3_3_chain, check_surjection,
                    explore_gamma, find_sources)
from .cover import (CoverQuiver, FiniteGroup, Grading, check_covering,
                    is_galois, lift_dilatation, lift_transvection,
                    smash_product, theorem_b_pipeline, universal_cover)

__version__ = "0.1.0"
