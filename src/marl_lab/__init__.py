"""marl_lab: a desk-scale multi-agent RL laboratory for social-dilemma
gridworlds with inequity-aversion and impact-scaled reward shaping."""

import ctypes
import os
import sys


def _hold_blas_at_one_thread():
    """The learner runs independent agents on their own threads (see
    training.update), so BLAS is held at one thread of its own: OpenBLAS's
    default pool would oversubscribe the cores. An explicit setting wins.
    The variables act only if numpy has not been loaded yet. If it has, and
    none was set, numpy's bundled OpenBLAS is told directly; with any other
    BLAS that is a no-op."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    preset = any(name in os.environ for name in names)
    for name in names:
        os.environ.setdefault(name, "1")
    numpy = sys.modules.get("numpy")
    if preset or numpy is None:
        return
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        set_threads(1)


_hold_blas_at_one_thread()


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
