"""Benchmark framework for hybrid quantum-classical binary classifiers.

A pure-numpy stack: statevector circuit simulation with adjoint-mode
gradients, four variational circuit families, a small reverse-mode
classical NN library, dataset/fold utilities, rank-based metrics,
nonparametric tests, and an experiment harness with a CLI
(``hqnnbench run|report``). Import from the submodules; the package top
level re-exports nothing.
"""

__version__ = "0.1.0"
