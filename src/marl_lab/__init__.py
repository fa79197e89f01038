"""marl_lab: a desk-scale multi-agent RL laboratory for social-dilemma
gridworlds with inequity-aversion and impact-scaled reward shaping."""

import ctypes
import os

# The learner runs independent agents on their own threads (see
# training.update), so BLAS is held at one thread of its own: OpenBLAS's
# default pool would oversubscribe the cores. This takes effect only when
# numpy has not been loaded yet, and an explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def _keep_freed_pages():
    """Backward frees each tape as it goes, and glibc would return those pages
    to the OS only to fault them in again for the next minibatch (~85k minor
    faults, ~0.35 s of system time per mini Cleanup learn). So arrays up to
    32 MB come from the heap, the heap keeps up to 256 MB free, and the
    learner's threads share one arena instead of each holding its own peak.
    A no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)
    mallopt(M_ARENA_MAX, 1)


_keep_freed_pages()

__version__ = "0.1.0"
