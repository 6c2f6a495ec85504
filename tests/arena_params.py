"""Hand-built parameter dicts laid out as ``Model.create`` lays out a
model's, for the tests that give ``OptimizerState.create`` their own."""

import numpy as np

from moce import autodiff as ad
from moce.autodiff import Tensor


def arena_params(values: dict) -> dict:
    """``{name: Tensor}`` leaves whose data are copies of ``values``'
    arrays, in their common dtype, as the views of one buffer in order
    (``ad.pack``, as ``Model.create`` does)."""
    params = {name: Tensor(np.asarray(a), requires_grad=True)
              for name, a in values.items()}
    ad.pack(params, np.result_type(*(t.dtype for t in params.values())))
    return params
