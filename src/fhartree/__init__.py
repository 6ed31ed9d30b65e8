"""Pseudospectral toolkit for a focusing fractional Hartree equation.

Ground states, sharp-constant and threshold identities, split-step time
evolution with blow-up/dispersal classification, and virial diagnostics,
all on a periodic box.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads it, so this must
# precede the submodule imports below.  fhartree's BLAS products are small
# (the orthant's cosine products, an m x m matrix times an m x 2m^(N-1) one
# with m = n/2+1 <= 129, the step loop's check, a few rows of weights times
# |u_hat|^2, and the exact-kernel build's) and the sweep already
# runs one process per core, its parent among them, so a BLAS thread pool
# only spins; an explicit user value still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ConfigError, RunConfig, SweepSpec, load_config
from .evolution import RunRecord, StepperConfig, evolve, invariance_audit
from .functionals import (
    InvariantPair,
    SetMembership,
    classify_membership,
    energy,
    hartree_energy,
    invariant_pair,
    mass,
)
from .ground_state import (
    GroundState,
    NonConvergenceError,
    SolverOptions,
    solve_ground_state,
)
from .params import PhysParams
from .snapshots import read_snapshot, write_snapshot
from .spectral import (
    CONVENTION_TAG,
    GridSpec,
    MultiplierSet,
    SpectralField,
    make_grid,
    make_multipliers,
    parseval_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CONVENTION_TAG",
    "ConfigError",
    "GridSpec",
    "GroundState",
    "InvariantPair",
    "MultiplierSet",
    "NonConvergenceError",
    "PhysParams",
    "RunConfig",
    "RunRecord",
    "SetMembership",
    "SolverOptions",
    "SpectralField",
    "StepperConfig",
    "SweepSpec",
    "classify_membership",
    "energy",
    "evolve",
    "hartree_energy",
    "invariance_audit",
    "invariant_pair",
    "load_config",
    "make_grid",
    "make_multipliers",
    "mass",
    "parseval_weight",
    "read_snapshot",
    "solve_ground_state",
    "write_snapshot",
    "__version__",
]
