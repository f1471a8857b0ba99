"""Federated incremental subgradient solvers for convex bilevel problems.

The inner problem is a finite sum of convex functions partitioned across
simulated clients; the outer strongly convex objective selects one point of
the inner solution set. The federated method freezes one outer subgradient
per round and averages parallel client passes; the incremental baseline
sweeps all inner functions sequentially with fresh outer subgradients.
"""
from .data import (FormatError, LabeledDataset, load_binary_digits, make_synthetic_logistic,
                   read_idx)
from .federation import (CONTIGUOUS, FISM, IRIG, SHUFFLED, CostModel, partition_data,
                         round_time, uniform_costs)
from .instances import location_problem, logistic_problem, selection_1d_problem
from .metrics import (RoundRow, RunRecord, accuracy, write_rows_csv, write_rows_jsonl,
                      write_run_json)
from .oracles import (BallDistances, EvalResult, InnerFamily, L1Quad, LogisticLosses,
                      Oracle, OracleFamily, OracleObjective, OuterObjective, QuadAnchor,
                      project_box)
from .problem import BoxConstraint, ProblemSpec, StepSchedule
from .rng import PRNG_ID, make_rng
from .solvers import RoundState, client_local_pass, run_solver

__version__ = "0.1.0"

__all__ = [
    "BallDistances", "BoxConstraint", "CostModel", "CONTIGUOUS", "EvalResult", "FISM",
    "FormatError", "IRIG", "InnerFamily", "L1Quad", "LabeledDataset", "LogisticLosses",
    "Oracle", "OracleFamily", "OracleObjective", "OuterObjective", "PRNG_ID",
    "ProblemSpec", "QuadAnchor", "RoundRow", "RoundState", "RunRecord", "SHUFFLED",
    "StepSchedule", "accuracy", "client_local_pass", "load_binary_digits",
    "location_problem", "logistic_problem", "make_rng", "make_synthetic_logistic",
    "partition_data", "project_box", "read_idx", "round_time", "run_solver",
    "selection_1d_problem", "uniform_costs", "write_rows_csv", "write_rows_jsonl",
    "write_run_json",
]
