"""Rotation-noise regularization and dropout-family numerics laboratory.

The package builds random pair-rotation operators (an alternative to
dropout whose noise for one neuron comes from the other neurons), the
dropout variants they are compared against, and the analysis machinery to
verify their covariance, co-adaptation, regression and batch-normalization
behavior by closed forms and Monte Carlo.
"""

__version__ = "0.1.0"

from . import batchnorm, coadapt, linreg, network, noise_ops, rotation, sources
from .rotation import *
from .noise_ops import *
from .sources import *
from .coadapt import *
from .linreg import *
from .batchnorm import *
from .network import *

__all__ = (
    rotation.__all__
    + noise_ops.__all__
    + sources.__all__
    + coadapt.__all__
    + linreg.__all__
    + batchnorm.__all__
    + network.__all__
)
