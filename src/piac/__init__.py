"""Transient-performance analysis of power-imbalance allocation control.

The package models secondary frequency control of a lossless power network
under three allocation laws (gather-broadcast, distributed, decentralized),
computes squared H2 norms of the closed loops both in closed form and
through Lyapunov solves, and simulates the nonlinear model under step and
white-noise disturbances.
"""

from .casefile import (bundled_case_path, dumps_case, load_case, loads_case,
                       save_case)
from .closedloop import (ModeBlock, OutputSelector, StateSpace, assemble,
                         assemble_decpiac, assemble_dpiac, assemble_gbpiac,
                         deflate_zero_mode, modal_decouple, output_matrix)
from .controllers import (LAWS, ControlLaw, GainSchedule, optimal_dispatch,
                          synchronized_frequency)
from .errors import (CaseFormatError, DAESolveError, DegenerateModel,
                     DisconnectedNetwork, DomainError, GainConstraintError,
                     InsufficientHorizon, NoControllers, NumericalBlowup,
                     PiacError, ShapeError, SolverAccuracyError,
                     UnstableSystem, UnsupportedForModalPath)
from .h2 import (AnalyticH2, Grammians, H2Report, analyze, compare_laws,
                 grammians, h2_bounds_general_B, h2_dpiac_analytic,
                 h2_gbpiac_analytic, h2_modal, h2_norms, limit_k1_infinity,
                 lyapunov_solve)
from .netmodel import (CommunicationGraph, HomogeneityReport, Node, NodeKind,
                       PowerNetwork, SpectralDecomposition, build_laplacian,
                       check_homogeneous, spectral_decompose)
from .scenario import Scenario, ScenarioKind
from .sim import (Equilibrium, Metrics, Trace, compute_metrics,
                  find_equilibrium, simulate_deterministic,
                  simulate_stochastic, write_ensemble_csv, write_trace_csv)

__version__ = "0.1.0"
