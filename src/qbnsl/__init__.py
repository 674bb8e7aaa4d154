"""Exact structure learning for Bayesian networks at desk scale.

The package solves the decomposable-score DAG optimization problem three
ways: a classical subset dynamic program, a parallel bucket-order cover
whose members are searched independently, and a simulated (or analytically
charged) quantum maximum-finding layer over the cover members.  Every
solver returns a witness DAG and is cross-checked against brute-force
oracles in the test suite.

Each name is imported from the module that defines it, for example
``from qbnsl.dp_exact import solve_dp``; the package itself re-exports
nothing.
"""

__version__ = "0.1.0"
