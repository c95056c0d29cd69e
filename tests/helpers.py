"""Test-only stand-ins for what no library path needs: an in-memory dataset
and a parameter count."""

import numpy as np

from voxcnn.metrics import CLASSES


class ArrayDataset:
    """Explicit (volume, label_index) pairs by sample id, with the `ids` and
    `example` that training reads and the `label_of` that saliency reads."""

    def __init__(self, examples: dict):
        self._examples = dict(examples)

    @property
    def ids(self) -> tuple:
        return tuple(self._examples)

    def example(self, sample_id):
        x, y = self._examples[sample_id]
        return np.asarray(x, dtype=np.float64), int(y)

    def label_of(self, sample_id) -> str:
        return CLASSES[int(self._examples[sample_id][1])]


def count_parameters(model) -> int:
    return sum(p.size for p in model.params.values())
