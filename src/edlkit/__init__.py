"""Tools for entanglement witnesses supported on small particle subsets. The modules
are the API; the root binds four of them, ``p_noise`` and ``__version__``."""

import os as _os

# Cap linear-algebra thread pools before numpy ever loads.  Effective when
# this package is imported first (the CLI entry point guarantees that); a
# numpy already imported by the host process keeps its own settings.
_threads = _os.environ.get("EDLKIT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import pauli, sdp, states, witness  # noqa: F401
from .witness import p_noise  # noqa: F401

__version__ = "0.1.0"
