"""Carry-save modular multiplication kernel with a verification harness.

The multiplier keeps its running value as a pair of fixed-width registers
whose sum is the meaning, so no step ever propagates a carry across the
word or compares full-width numbers. The result is a pair (p, q), both
below the modulus, with p + q congruent to the product.
"""

__version__ = "0.1.0"

from .bitcore import BitVec, csa, maj2of3, top_up
from .errors import ContractViolation, InvariantViolation
from .harness import (
    SweepConfig,
    SweepReport,
    exhaustive_sweep,
    hunt_shrink_cycles,
    random_sweep,
)
from .mainloop import Accumulator, StepTrace, lcu, run_loop
from .modparams import (
    MAX_WIDTH,
    ModulusParams,
    precompute,
    shift_left_operand,
    shift_right_result,
)
from .oracle import (
    exhaustive_mismatches,
    fold_pair,
    ref_mulmod,
    replay_step_wide,
)
from .pipeline import MulResult, RunTrace, mulmod, mulmod_checked
from .shrink import (
    NORMAL_CYCLE_CAP,
    ShrinkCycle,
    ShrinkReport,
    run_shrink,
    shrink_cycle,
)
from .squeeze import SqueezeReport, qcu_apply, squeeze_topup

__all__ = [
    "Accumulator",
    "BitVec",
    "ContractViolation",
    "InvariantViolation",
    "MAX_WIDTH",
    "ModulusParams",
    "MulResult",
    "NORMAL_CYCLE_CAP",
    "RunTrace",
    "ShrinkCycle",
    "ShrinkReport",
    "SqueezeReport",
    "StepTrace",
    "SweepConfig",
    "SweepReport",
    "csa",
    "exhaustive_mismatches",
    "exhaustive_sweep",
    "fold_pair",
    "hunt_shrink_cycles",
    "lcu",
    "maj2of3",
    "mulmod",
    "mulmod_checked",
    "precompute",
    "qcu_apply",
    "random_sweep",
    "ref_mulmod",
    "replay_step_wide",
    "run_loop",
    "run_shrink",
    "shift_left_operand",
    "shift_right_result",
    "shrink_cycle",
    "squeeze_topup",
    "top_up",
]
