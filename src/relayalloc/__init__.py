"""Globally optimum resource allocation for relay aided OFDMA downlinks.

The package splits the weighted sum rate maximization into the per
subcarrier relay selection closed forms (``rates``), a dual decomposition
price search (``solver``), a high power shortcut (``highpower``) and a per
subcarrier baseline (``reference``), plus channel synthesis (``channel``)
and an experiment CLI (``cli``, imported on its own). The brute force
verifiers live with the tests, in ``tests/oracle.py``.

Every name is reached through its module, such as ``solver.solve`` or
``rates.classify``. ``rates.classify`` reduces every (subcarrier,
destination) pair to its price independent terms, one ``ModeSets``; every
protocol (``solver.solve``, ``highpower.solve_high_power`` and
``reference.solve_reference``) returns one ``solver.Allocation``.
"""

from . import channel, highpower, rates, reference, solver

__version__ = "0.1.0"

__all__ = ["channel", "highpower", "rates", "reference", "solver", "__version__"]
