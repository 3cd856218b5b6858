"""Symbolic search and numerical certification of Lyapunov functions for
continuous-time models of convex-optimization algorithms."""

from .expr import Expr, GammaForm, LINEAR, LOG, POWER, parse_expr
from .pq import PQPair, apply_operation, apply_sequence, initial_pair
from .sequences import OperationSequence, PairGroup, enumerate_pairs, generate_sequences
from .systems import CATALOG, OdeSystemSpec, load_system
from .analysis import (AllPositive, Eventually, RateQuery, RateResult, Window,
                       analyze_groups, best_rate, verify_catalog)
from .simulate import (QuadraticObjective, Trajectory, conservation_check, integrate,
                       measure_rate)
from .restart import RestartReport, RestartSpec, run_restart

__all__ = [
    "Expr", "GammaForm", "LINEAR", "LOG", "POWER", "parse_expr",
    "PQPair", "apply_operation", "apply_sequence", "initial_pair",
    "OperationSequence", "PairGroup", "enumerate_pairs", "generate_sequences",
    "CATALOG", "OdeSystemSpec", "load_system",
    "AllPositive", "Eventually", "RateQuery", "RateResult", "Window",
    "analyze_groups", "best_rate", "verify_catalog",
    "QuadraticObjective", "Trajectory", "conservation_check", "integrate", "measure_rate",
    "RestartReport", "RestartSpec", "run_restart",
]

__version__ = "0.1.0"
