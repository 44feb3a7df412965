"""Time-linkage OneMax laboratory.

A numpy library for the weighted time-linkage OneMax benchmark family:
single-parent and population evolutionary algorithms whose fitness couples the
current bitstring with the first bit of the previous decision, detectors for
the proven absorbing stagnation events, exact absorbing-Markov-chain analysis
on a symmetry-lumped state space, and reproducible Monte Carlo estimation.
"""

__version__ = "0.1.0"

from .algorithms import (ONE_PLUS_ONE_EA, RLS, AlgorithmKind, PopulationMember,
                         TrialOutcome, TrialStatus, mu_plus_one_ea, run_trial,
                         split_seed, step)
from .core import TLState, as_bits, fitness, is_global_optimum, random_init
# build_transition_matrix stays a package attribute outside __all__: perfbench reads it
from .markov import (CLASS_NAMES, AbsorptionResult, HittingTimeResult,
                     absorption_probabilities, build_transition_matrix,
                     conditional_hitting_time)
from .montecarlo import (EstimateResult, ExperimentConfig, ScalingRow,
                         default_budget, estimate, runtime_scaling, wilson_ci)
from .stagnation import StagnationEvent, classify, is_absorbing_oracle
from .verify import (LemmaReport, check_mutation_facts, check_rank_equivalence,
                     check_selection_equivalence)

__all__ = [
    "__version__",
    "AlgorithmKind", "RLS", "ONE_PLUS_ONE_EA", "mu_plus_one_ea",
    "TLState", "PopulationMember", "TrialOutcome", "TrialStatus",
    "as_bits", "fitness", "is_global_optimum", "random_init",
    "step", "run_trial", "split_seed",
    "StagnationEvent", "classify", "is_absorbing_oracle",
    "CLASS_NAMES", "AbsorptionResult", "HittingTimeResult",
    "absorption_probabilities", "conditional_hitting_time",
    "ExperimentConfig", "EstimateResult", "ScalingRow",
    "estimate", "wilson_ci", "runtime_scaling", "default_budget",
    "LemmaReport", "check_mutation_facts", "check_selection_equivalence",
    "check_rank_equivalence",
]
