"""oodseg: find out-of-distribution objects in semantic-segmentation output.

The package post-processes a network's softmax probabilities: pixel-wise
uncertainty scores highlight unknown objects, thresholding plus connected
components turns them into candidate segments, hand-crafted per-segment
features feed a logistic-regression meta classifier that removes false
indications, and the evaluation layer tracks segment-level FP/FN counts,
pixel-level AuPRC and the mIoU cost of the whole pipeline. A seeded
synthetic benchmark stands in for a trained network so every step can be
exercised end to end in seconds.
"""

from .errors import *
from .evaluate import *
from .meta import *
from .scores import *
from .segments import *
from .synth import *
from .tensor_io import *
from . import errors, evaluate, meta, scores, segments, synth, tensor_io

__version__ = "0.1.0"

__all__ = ["__version__"]  # then each module's __all__, the one list of its public names
__all__ += errors.__all__
__all__ += evaluate.__all__
__all__ += meta.__all__
__all__ += scores.__all__
__all__ += segments.__all__
__all__ += synth.__all__
__all__ += tensor_io.__all__
