"""Evidential multi-view learning: subjective-logic opinions, Dirichlet
evidence, cumulative and constraint fusion, and trust-aware training.

Every public name lives in its module and is imported from there, for
example `from evifuse.model import fit`; the package exports only
`__version__`.
"""

__version__ = "0.1.0"
