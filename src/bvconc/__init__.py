"""Distribution-free, non-asymptotic concentration bounds and KS-like tests
for randomized functions of uniformly bounded variation.

The package re-exports each library submodule's ``__all__`` and the
exception classes of :mod:`bvconc.errors`, so a new public name goes in its
module's ``__all__`` only:

* :mod:`bvconc.bounds` — residual/denominator/shift closed forms, one- and
  two-sample tail bounds and critical values, exponential-family entropy
  minimization;
* :mod:`bvconc.coefficients` — McDiarmid and downward-variation coefficients,
  cluster effective sample sizes;
* :mod:`bvconc.empirical` — step CDFs, exact sup distances, Lipschitz panels;
* :mod:`bvconc.kstests` — hypothesis-test wrappers with p-value upper bounds;
* :mod:`bvconc.montecarlo` — enumeration and Monte Carlo validation.

:mod:`bvconc.cli`, the command-line front end (``python -m bvconc``), is not
re-exported.
"""

from .bounds import *
from .coefficients import *
from .empirical import *
from .errors import *
from .kstests import *
from .montecarlo import *

__version__ = "0.1.0"
