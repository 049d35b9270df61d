"""Stubs that perfbench/tracer.py wraps by name.

Smith forms over Q[t, 1/t] are ``ReducedComplex.smith``'s: the monic
elementary divisors that ``twisted._laurent_smith`` computes on the sparse
reduced rows.  The tracer fails on a missing wrapped name, as it does for
``kernels.rank_int`` and the ``rank_*`` aliases of ``linalg``.  Nothing
calls these: each is its own function, so that wrapping one rebinds no
other name.
"""


def snf(m):
    raise NotImplementedError("Smith forms are ReducedComplex.smith's")


def rank_at(m, a):
    raise NotImplementedError("ranks at a point are ReducedComplex.dim_at's")
