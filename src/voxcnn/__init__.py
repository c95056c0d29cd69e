"""voxcnn: from-scratch 3D convolutional networks for volumetric classification.

Pure-numpy library covering the full pipeline: numeric kernels with exact
analytic gradients, three volumetric architectures, training with Adam and
k-fold cross-validation, ensembling, evaluation metrics, gradient saliency,
and binary container formats for models and volumes.
"""

from .errors import NumericError, ValidationError, VoxcnnError

__version__ = "0.2.0"

__all__ = ["VoxcnnError", "ValidationError", "NumericError", "__version__"]
