"""Reference implementations the test suite checks the production code against.

* :mod:`tests.oracles.simplex` — the dense two-phase full-tableau
  simplex over the equality standard form.
* :mod:`tests.oracles.reference` — the per-row Python-loop
  standardization of the bounded-variable array LP, feeding that
  tableau (``solve_lp_arrays_reference``).
* :mod:`tests.oracles.decomposition` — the per-(group, site) scalar
  scans of the decomposition engine's primal rounding and local pass.
* :mod:`tests.oracles.placement` — the one-pair-at-a-time scalar
  per-placement objective coefficient.
* :mod:`tests.oracles.hint_repair` — the name→value incumbent hint
  repairer: one dict-completed point, full objective sum and full row
  re-sum per polish candidate.

None is reachable from ``repro``: the library solves node LPs with
the sparse revised/dual core or HiGHS only, prices every placement in
one array pass and the local pass a row of sites at a time, and
repairs hints on the problem's arrays.
HiGHS stays the external LP oracle; these are the from-scratch second
opinion.
"""
