"""Simulation and certification toolkit for set-valued Lur'e systems.

The library integrates differential inclusions of the form

    dx/dt = f(t, x) + B lam,    y = C x + D lam,    lam in -N_{K(t,x)}(y)

with an implicit time-stepping scheme, where N is the normal cone of a
moving closed convex set K. It certifies the structural facts the scheme
relies on (passivity shift, kernel and range inclusions, set variation
bounds) and checks quantitative decay and sensitivity envelopes on
simulated trajectories.
"""

# each module's literal __all__ is the one declaration of its public names
from .analysis import *
from .errors import *
from .integrate import *
from .linalg import *
from .moving import *
from .scenario import *
from .sets import *
from .step import *
from .system import *
from .svgplot import *
from . import analysis, errors, integrate, linalg, moving, scenario, sets, step, system, svgplot

__version__ = "1.0.0"

__all__: list[str] = []
__all__ += analysis.__all__
__all__ += errors.__all__
__all__ += integrate.__all__
__all__ += linalg.__all__
__all__ += moving.__all__
__all__ += scenario.__all__
__all__ += sets.__all__
__all__ += step.__all__
__all__ += system.__all__
__all__ += svgplot.__all__
