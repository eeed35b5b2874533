"""emblend: curation engine for paired multimodal datasets."""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .geometry import Embedding, centroid, cosine_sim, normalize  # noqa: F401
from .sns import (Component, NucleusRecord, PairedSample, SnsConfig,  # noqa: F401
                  apply_sns, info_density, mi_gate, segment_text)
from .projection import (LossWeights, ProjectionModel, TrainConfig,  # noqa: F401
                         init_projection, train)
