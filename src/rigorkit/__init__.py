"""rigorkit: a rigorous-numerics toolkit.

Interval arithmetic with outward rounding, compiled interval evaluators
with Taylor bounds, an adaptive-subdivision inequality prover, rigorous
LP bound certification with K-t augmentation, nonlinear duality
certificates for linear assembly problems, decorated plane-graph
enumeration, and pivot-based geometric nonexistence checks.
"""

__version__ = "0.1.0"
