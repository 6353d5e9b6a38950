"""CLN activation functions: predicate relaxations (§2.3, §4.2).

Three families:

* ``gaussian_equality`` — the Gaussian relaxation of ``t = 0`` from the
  original CLN paper, ``exp(-t^2 / 2σ^2)``.
* ``pbqu_ge`` — the Piecewise Biased Quadratic Unit introduced by this
  paper for ``t >= 0``:

      S(t >= 0) = c1^2 / (t^2 + c1^2)   if t < 0   (sharp penalty)
                = c2^2 / (t^2 + c2^2)   if t >= 0  (slow decay)

  With small c1 and large c2 this approaches the discrete predicate
  while still *penalizing loose fits* — points far above the bound get
  truth value below 1, which is what drives the model toward tight
  bounds (Theorem 4.2).
* ``sigmoid_ge`` — the original CLN sigmoid relaxation of ``>=`` with
  shift ε and sharpness B, kept for comparison (Fig. 7a) and for the
  plain-CLN stability baseline.

Numpy twins (``*_numpy``) are provided for plotting benches and for
fast no-grad evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.functional import gaussian, pbqu, sigmoid
from repro.autodiff.tensor import Tensor


def gaussian_equality(t: Tensor, sigma=0.1) -> Tensor:
    """Relaxation of ``t == 0``; 1 exactly at t = 0, decaying in |t|.

    ``sigma`` may be a float or a 0-d numpy box annealed in place.
    """
    return gaussian(t, sigma)


def pbqu_ge(t: Tensor, c1=1.0, c2=50.0) -> Tensor:
    """PBQU relaxation of ``t >= 0`` (Eq. 3 of the paper).

    Args:
        t: residual values (already ``lhs - rhs``).
        c1: below-bound sharpness (small = strong violation penalty).
        c2: above-bound tolerance (large = slow decay above the bound).

    One fused graph node the tape replays; ``c1``/``c2`` may be floats
    or 0-d numpy boxes annealed in place.
    """
    return pbqu(t, c1, c2)


def pbqu_le(t: Tensor, c1=1.0, c2=50.0) -> Tensor:
    """PBQU relaxation of ``t <= 0`` (mirror of :func:`pbqu_ge`)."""
    return pbqu(-t, c1, c2)


def sigmoid_ge(t: Tensor, B: float = 5.0, eps: float = 0.5) -> Tensor:
    """Original CLN relaxation of ``t >= 0``: ``σ(B(t + ε))``."""
    return sigmoid((t + eps) * B)


# -- numpy twins (no autodiff graph) ---------------------------------------


def gaussian_equality_numpy(t: np.ndarray, sigma: float = 0.1) -> np.ndarray:
    return np.exp(-(np.asarray(t, dtype=np.float64) ** 2) / (2.0 * sigma**2))


def pbqu_ge_numpy(t: np.ndarray, c1: float = 1.0, c2: float = 50.0) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    below = (c1 * c1) / (t * t + c1 * c1)
    above = (c2 * c2) / (t * t + c2 * c2)
    return np.where(t >= 0.0, above, below)


def sigmoid_ge_numpy(t: np.ndarray, B: float = 5.0, eps: float = 0.5) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    z = np.clip(B * (t + eps), -500, 500)
    return 1.0 / (1.0 + np.exp(-z))
