"""emblend: curation engine for paired multimodal datasets."""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .dataio import Component, PairedSample, segment_text  # noqa: F401
from .geometry import centroid, cosine_sim, normalize  # noqa: F401
from .sns import NucleusRecord, SnsConfig, info_density, mi_gate  # noqa: F401
from .projection import (LossWeights, ProjectionModel, TrainConfig,  # noqa: F401
                         init_projection, train)
