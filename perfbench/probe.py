"""Print the median milliseconds of one 60x60 ``generalized_eigh`` call.

Run with ``src`` on ``PYTHONPATH``. ``run.py`` starts it twice, once with the
BLAS thread variables pinned to 1 and once without them, and records the
ratio in the environment block.
"""

import statistics
import time

import numpy as np

from kmsa.eigsolver import generalized_eigh

N, D, CALLS = 60, 4, 60

rng = np.random.default_rng(0)
A = rng.standard_normal((N, N))
B = rng.standard_normal((N, N))
H = A @ A.T
M = B @ B.T + N * np.eye(N)
generalized_eigh(H, M, D)
times = []
for _ in range(CALLS):
    start = time.perf_counter()
    generalized_eigh(H, M, D)
    times.append(time.perf_counter() - start)
print(f"{1e3 * statistics.median(times):.6f}")
