"""Extra synchronization schemes built on the lowering-pass pipeline.

These live *outside* the compiler core on purpose: they register
themselves through :mod:`repro.compiler.schemes` exactly the way a
third-party scheme would, proving the registry's extension path.
Importing a module here is all it takes for its scheme to appear in
:func:`~repro.compiler.schemes.scheme_names`, sweep grids, BENCH
artifacts and figures.
"""

from . import lockstep_window, oracle  # noqa: F401  (register on import)
