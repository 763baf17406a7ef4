"""Heralded-photon purity and heralding statistics for filtered pair sources.

The package models the joint spectral amplitude of a parametric photon-pair
source, applies spectral filters to either arm, and computes the heralded
single-photon purity, the heralding probability, the Schmidt mode structure,
and two-source interference, through three mutually checking routes: closed
forms, direct quadrature, and mode decomposition.

Modules log to the ``heraldpurity`` logger, which is silent unless the
application configures logging.
"""

import logging

from . import analytic, core, quadrature, schmidt, sweep
from .analytic import *
from .core import *
from .quadrature import *
from .schmidt import *
from .sweep import *

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = ["__version__", *core.__all__, *quadrature.__all__,
           *analytic.__all__, *schmidt.__all__, *sweep.__all__]
