"""Exact-arithmetic engine for weak Hopf algebras and their Ore extensions."""

from .bialgebra import (Algebra, Coalgebra, WeakBialgebra, WeakHopfAlgebra,
                        base_subalgebras, check_antipode, check_weak_bialgebra, convolution,
                        map_convolution, tensor_product, weak_counit_identities)
from .coderivations import (CoderivationWitness, coderivation_constraint_matrix,
                            coderivation_witness, coderivation_space, eps_delta_report,
                            inner_coderivation, is_coderivation, is_sigma_derivation,
                            is_skew_primitive, skew_derivation,
                            skew_primitive_identity_report)
from .fields import GF, Field, QQ
from .groupoid import (GroupPresentation, GroupoidAlgebra, build_groupoid_algebra,
                       group_algebra, matrix_algebra)
from .grouplike import (Character, WeakGrouplike, brute_force_weak_grouplikes,
                        char_antipode_report, character_from_endo, classify_character,
                        convolution_inverse, enumerate_weak_grouplikes_matrix,
                        grouplike_identity_report, is_grouplike, is_weak_character,
                        is_weak_grouplike, winding)
from .linalg import Matrix, column_space_basis, in_span, kernel_basis, kron, rank, solve
from .ore import (OreAlgebra, expand_skew_power, extend_antipode, extend_coalgebra,
                  make_ore, verify_extension)
from .panov import (AlphaSolution, PanovClauses, PanovVerdict, ad_map, build_twisted_derivation,
                    centrality_report, groupoid_character, hopf_conditions, panov_necessary,
                    panov_sufficient, solve_alpha)
from .report import AxiomReport, CheckResult
from .specfile import SpecBundle, emit_spec, parse_spec, spec_text, write_spec

__version__ = "0.1.0"
