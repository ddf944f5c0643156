"""Globally optimum resource allocation for relay aided OFDMA downlinks.

The package splits the weighted sum rate maximization into the per
subcarrier relay selection closed forms (``rates``), a dual decomposition
price search (``solver``), a high power shortcut (``highpower``) and a per
subcarrier baseline (``reference``), plus channel synthesis (``channel``)
and an experiment CLI (``cli``). The brute force verifiers live with the
tests, in ``tests/oracle.py``.

``rates.classify`` reduces every (subcarrier, destination) pair to its
price independent terms, one ``ModeSets``; every protocol (``solve``,
``solve_high_power`` and ``solve_reference``) returns one ``Allocation``.
"""

from .channel import (
    ChannelRealization,
    GainTable,
    Region,
    TapProfile,
    Topology,
    place_destinations,
    synthesize_realization,
    to_gains,
)
from .highpower import HighPowerReport, check_conditions, solve_high_power
from .rates import (
    MODE_DIRECT,
    MODE_RELAY,
    ModeSets,
    classify,
    effective_gain_table,
)
from .reference import solve_reference, waterfill
from .solver import (
    Allocation,
    ConvergenceError,
    DualState,
    SolverParams,
    SubcarrierAssignment,
    initial_price,
    price_bracket,
    solve,
    solve_at_price,
    user_rates,
    weighted_sum_rate,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ChannelRealization",
    "ConvergenceError",
    "DualState",
    "GainTable",
    "HighPowerReport",
    "MODE_DIRECT",
    "MODE_RELAY",
    "ModeSets",
    "Region",
    "SolverParams",
    "SubcarrierAssignment",
    "TapProfile",
    "Topology",
    "check_conditions",
    "classify",
    "effective_gain_table",
    "initial_price",
    "place_destinations",
    "price_bracket",
    "solve",
    "solve_at_price",
    "solve_high_power",
    "solve_reference",
    "synthesize_realization",
    "to_gains",
    "user_rates",
    "waterfill",
    "weighted_sum_rate",
    "__version__",
]
