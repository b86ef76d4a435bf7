"""Reference LP solvers the test suite checks the production engines against.

* :mod:`tests.oracles.simplex` — the dense two-phase full-tableau
  simplex over the equality standard form.
* :mod:`tests.oracles.reference` — the per-row Python-loop
  standardization of the bounded-variable array LP, feeding that
  tableau (``solve_lp_arrays_reference``).

Neither is reachable from ``repro``: the library solves node LPs with
the sparse revised/dual core or HiGHS only.  HiGHS stays the external
oracle; these are the from-scratch second opinion.
"""
