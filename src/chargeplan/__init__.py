"""chargeplan: multistage EV charging-network expansion planning with congestion.

Plans where to open charging stations and how many posts to install at each
node of a demand scenario tree, so that every station keeps the probability of
an arriving vehicle finding at most b others in queue above a service level
alpha.  Ships an exact MILP formulation on an embedded LP/MIP kernel, a
relax-and-round approximation, a greedy heuristic with local search, and a
Dantzig-Wolfe branch-and-price solver.
"""

import os

# One BLAS thread unless the environment says otherwise.  The kernel's
# matrix-vector products are small: spread over threads they run several
# times slower on a busy machine and can change the branch-and-bound path.
# Set before any submodule imports numpy, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
