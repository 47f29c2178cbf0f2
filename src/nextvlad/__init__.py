"""NeXtVLAD video classification, from scratch on a minimal autodiff core."""

import os

# One BLAS thread unless the caller chose otherwise: a threaded BLAS may split a
# product's sums differently, so the same seed would not give the same bytes.  It
# takes effect only where numpy is first imported after this package.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from . import autodiff, data, losses, metrics, model, rng, train, vlad  # noqa: E402

__version__ = "0.1.0"
