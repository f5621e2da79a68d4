"""Numerical laboratory for stochastic pseudo-differential operator calculus.

Layers, bottom up: periodic grids and spectral fields (`grid`), Brownian
paths and adapted Ito processes (`paths`), symbols with empirical class
checkers (`symbols`, `catalog`), quantized operators with boundedness and
parametrix harnesses (`operators`), companion reduction and symbol-level
diagonalization (`reduction`), Monte Carlo verification of the weighted
energy inequality (`carleman`), and the experiment CLI (`config`, `reports`,
`cli`).
"""

from .errors import (AdaptednessError, BranchCrossingError, ConfigError,
                     ContextMismatchError, DegenerateDiagonalizationError,
                     DenseCapError, EllipticityError, GridMismatchError,
                     NonFiniteError, OrderFitError, RootSolveError, SpdoLabError,
                     StencilError, WindowError)
from .grid import (SpectralField, TorusGrid, differentiate, inner, l2_norm,
                   random_band_limited_field, sobolev_norm)
from .paths import (BrownianPath, ConstantRule, PathSlice, Semimartingale,
                    TimeGrid, constant_field_rule, derive_rng, ito_process,
                    parabolic_window, realized_quadratic_variation,
                    sample_brownian, sine_window, windowed_ito_process)
from .symbols import (EllipticityReport, HypothesisReport, PrincipalSymbol,
                      RootStack, Symbol, SymbolOrderReport, characteristic_roots,
                      check_elliptic, check_hypotheses, solve_roots,
                      verify_symbol_order)
from .operators import (CompositionResult, MatrixOperator, ParametrixResult,
                        SpdoOperator, boundedness_harness, compose,
                        composition_symbol, parametrix,
                        parametrix_residual_scan, quantize)
from .reduction import (CompanionState, Diagonalization, ManufacturedSolution,
                        PrincipalMatrixSymbol, branch_symbol,
                        build_companion_state, diagonalize,
                        exact_companion_state, principal_matrix_symbol,
                        reduction_consistency_check, reduction_table,
                        split_roots)
from .carleman import (CarlemanConfig, CarlemanReport, ScanResult,
                       scan, verify_inequality)
from .config import ExperimentConfig, parse_config

__version__ = "0.1.0"
