"""Exact-arithmetic engine for weak Hopf algebras and their Ore extensions."""

from .bialgebra import (WeakBialgebra, WeakHopfAlgebra, base_subalgebras, check_antipode,
                        check_weak_bialgebra, convolution)
from .coderivations import (coderivation_constraint_matrix, coderivation_space,
                            is_sigma_derivation, skew_derivation)
from .fields import GF, Field, QQ
from .groupoid import (GroupPresentation, GroupoidAlgebra, build_groupoid_algebra,
                       group_algebra, matrix_algebra)
from .grouplike import (Character, WeakGrouplike, brute_force_weak_grouplikes,
                        enumerate_weak_grouplikes_matrix, is_weak_grouplike, winding)
from .linalg import Matrix, column_space_basis, kernel_basis, rank, solve
from .ore import OreAlgebra, extend_antipode, extend_coalgebra, make_ore, verify_extension
from .panov import (PanovClauses, PanovVerdict, build_twisted_derivation, groupoid_character,
                    hopf_conditions, panov_necessary, panov_sufficient, solve_alpha)
from .report import AxiomReport, CheckResult
from .specfile import SpecBundle, emit_spec, parse_spec, spec_text, write_spec

__version__ = "0.1.0"
