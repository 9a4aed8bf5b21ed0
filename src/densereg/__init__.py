"""Deformable 3D registration by dense displacement sampling.

The top level re-exports the working API: configure with
:class:`RegistrationConfig`, run :func:`register_pair`, score with
:func:`dice` / :func:`jacobian_stats`, and move volumes in and out with
the ``read_*`` / ``write_*`` helpers.  Submodules stay importable for the
lower-level pieces (features, correlation, regularizer, transform,
refine).
"""

from .geometry import DisplacementField, DisplacementSpace, Volume3D
from .io import (read_field, read_volume, write_field, write_volume,
                 VolumeIOError)
from .metrics import RegistrationReport, dice, jacobian_stats, mean_dice
from .phantom import PhantomPair, PhantomSpec, generate
from .pipeline import RegistrationResult, register_pair
from .refine import RefineConfig
from .regularizer import RegularizerParams
from .transform import RegistrationConfig

__version__ = "0.1.0"

__all__ = [
    "DisplacementField",
    "DisplacementSpace",
    "PhantomPair",
    "PhantomSpec",
    "RefineConfig",
    "RegistrationConfig",
    "RegistrationReport",
    "RegistrationResult",
    "RegularizerParams",
    "Volume3D",
    "VolumeIOError",
    "dice",
    "generate",
    "jacobian_stats",
    "mean_dice",
    "read_field",
    "read_volume",
    "register_pair",
    "write_field",
    "write_volume",
    "__version__",
]
