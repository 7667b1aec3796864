"""Device-function library imported by generated kernels.

Real CoCoNet kernels call CUDA device functions and NCCL primitives;
our generated Python kernels call these helpers. Keeping them in a
library (rather than inlining) mirrors how generated CUDA links against
device-side headers.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.rng import dropout_mask  # noqa: F401  (re-export)
from repro.runtime.world import slice_of  # noqa: F401  (re-export)


def conv2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Library convolution call (cuDNN analogue)."""
    from repro.runtime.executor import _conv2d

    return _conv2d(x, w, stride, padding)
