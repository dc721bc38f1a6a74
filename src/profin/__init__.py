"""Finite structure families, spiral covers with group labellings, Boolean
powers, and certified conjugator constructions."""

from .errors import CapExhausted, VerificationError
from .structures import (F, F0, F0N, FN, FinStructure, MembershipReport,
                         Partition, connected_components, disjoint_union,
                         expand_constants, in_family, induced,
                         is_surjective_relation, outgoing_classification,
                         quotient, surjective_core)
from .groups import (FinGroup, Labelling, cyclic_group, exponent,
                     perm_group_from_generators, preset_group,
                     subgroup_closure)
from .maps import (StructMap, check_epimorphism, check_homomorphism,
                   coinitial_cover, compose, fibre_product, find_epimorphism,
                   find_homomorphism, identity_map, jpp_witness, pap_witness)
from .spirals import (QPWitness, Spiral, make_spiral, spiral_cover_map,
                      spiral_qp_labelling, surj_qp_cover, verify_qp)
from .algebra import (BooleanPowerAlgebra, BooleanPowerSpace, FinAlgebra,
                      automorphisms, boolean_power, congruence_closure,
                      congruence_lattice, filtered_boolean_power,
                      is_idempotent, is_simple, malcev_term_exists,
                      pin_closure_violation, preset_algebra,
                      preserves_operations)
from .autgroup import (Hbar, Khat, PowerAut, ProductAut, TransconjInstance,
                       conjugate, cycle_cover_instance, elements_equal,
                       function_space, pinned_union_instance, qp_conjugator)
from .tower import Tower, TowerStatus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
