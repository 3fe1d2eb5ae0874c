"""Probabilistic predicate abstraction of bounded integer programs.

Builds Bernoulli Boolean programs from small loop-free imperative programs,
runs exact inference on them through symbolic model checking and weighted
model counting, and checks the soundness/invariance properties against a
brute-force concrete oracle.  Pure Python: the BDD node store is
``bernabs.kernel`` and there is nothing to build.
"""

__version__ = "0.1.0"

# Kept as a constant because the benchmark summary prints it.
DEFAULT_BACKEND = "pure"

__all__ = ["DEFAULT_BACKEND", "__version__"]
