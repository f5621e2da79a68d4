"""Numerical laboratory for stochastic pseudo-differential operator calculus.

Fields are arrays of Fourier coefficients throughout. Layers, bottom up:
periodic grids, pure-mode coefficients and Sobolev norms (`grid`), Brownian
paths and the windows of additive-noise processes (`paths`), symbols with
empirical class checkers (`symbols`, `catalog`), quantized operators with
boundedness and parametrix harnesses (`operators`), companion reduction and
symbol-level diagonalization (`reduction`), Monte Carlo verification of the
weighted energy inequality (`carleman`), and the experiment CLI (`config`,
`reports`, `cli`).
"""

from .errors import (AdaptednessError, BranchCrossingError, ConfigError,
                     DegenerateDiagonalizationError,
                     DenseCapError, EllipticityError,
                     NonFiniteError, OrderFitError, RootSolveError, SpdoLabError,
                     WindowError)
from .grid import TorusGrid, mode_coefficients, sobolev_norm
from .paths import (BrownianPath, PathSlice, TimeGrid, derive_rng, parabolic_window,
                    pinned_window, sample_brownian, sine_window)
from .symbols import (EllipticityReport, HypothesisReport, PrincipalSymbol,
                      RootStack, Symbol, SymbolOrderReport, check_elliptic,
                      check_hypotheses, solve_roots, verify_symbol_order)
from .operators import (ParametrixResult, SpdoOperator, boundedness_harness, parametrix,
                        parametrix_residual_scan, quantize)
from .reduction import (Diagonalization, ManufacturedSolution, branch_symbol,
                        companion_symbol, diagonalize, exact_companion_state,
                        reduction_consistency_check, reduction_table, split_roots)
from .carleman import (CarlemanConfig, CarlemanReport, ScanResult,
                       scan, verify_inequality)
from .config import ExperimentConfig, parse_config

__version__ = "0.1.0"
