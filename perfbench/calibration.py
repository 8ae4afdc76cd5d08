"""A fixed numpy kernel that measures how fast this host is running now.

On a shared host a core's speed drifts by tens of percent over minutes with
the load its neighbours put on the machine, and an op's CPU time drifts with
its wall time, so the drift is not preemption.  The kernel below slows down
in step with the ops.  The benchmark runs one pass of it just before every op
and reports times rescaled to the reference machine's speed:

    reported time = measured time * REFERENCE_MS / mean kernel time of the run

The mean, not the median: a 40 ms piece of the kernel takes one of two
times, about 27 or 48 ms on the reference machine, as if a neighbour on the
same core were idle or busy, and an op of a second or so averages over both.
The mean over the run estimates how much of the run was slowed.  A pass runs
the piece three times, which tracks the ops better than one piece does.

The kernel uses numpy alone and runs nothing of the program, so a change to
the program does not change the work it does.  Like the workloads it uses a dense Hermitian
eigensolve and many small 2-D FFTs, with BLAS pinned to one thread by the
launcher.
"""

import time

import numpy as np

# The fixed numerator of the scale: reported times are milliseconds on a
# machine whose kernel passes average 120 ms.  On the reference machine they
# averaged 124 to 139 ms (README.md).
REFERENCE_MS = 120.0
PIECES = 3
FFT_REPS = 200


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self._hermitian = m @ m.conj().T
        self._coils = rng.standard_normal((4, 32, 32)) + 1j * rng.standard_normal((4, 32, 32))
        self.kernel()  # first call allocates LAPACK workspace

    def kernel(self):
        """One timed pass of the kernel, in seconds."""
        t0 = time.perf_counter()
        for _ in range(PIECES):
            np.linalg.eigvalsh(self._hermitian)
            for _ in range(FFT_REPS):
                np.fft.ifft2(np.fft.fft2(self._coils) * 2.0).sum()
        return time.perf_counter() - t0


def scale(calibration_s):
    """Factor that turns a time measured in a run whose mean kernel pass took
    ``calibration_s`` seconds into reference-machine time."""
    return REFERENCE_MS * 1e-3 / calibration_s
