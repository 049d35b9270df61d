"""Names read by the benchmark (perfbench/run.py and perfbench/tracer.py).

``rank_int`` is the one exact rank of ``novikov.linalg``; there is no
compiled kernel.
"""

from .linalg import rank as rank_int

IMPLEMENTATION = "pure-python"
