"""Synthetic pixel-style clustered datasets for desk-scale experiments.

Produces flattened 16x16 grayscale patches: each class owns a smooth
random prototype image, samples add per-pixel Gaussian noise of sigma
0.5, and 12% of the samples blend two prototypes.  The blends guarantee
the k-NN graph stays connected across clusters, which is exactly the
regime where clamped harmonic propagation collapses toward a constant at
one label per class while source-term propagation keeps the classes
separated.  The generator seed is fixed at 20240501, so every call with
the same sizes returns the same data.
"""

import numpy as np

from .errors import InvalidParameterError, checked_int

__all__ = ["make_cluster_dataset"]

_SIDE = 16
_NOISE = 0.5
_BLEND_FRACTION = 0.12
_SEED = 20240501


def _smooth_prototype(rng) -> np.ndarray:
    # at module level scipy.ndimage adds ~4 MB and ~0.1 s to every import of varprop
    from scipy import ndimage

    coarse = rng.uniform(0.0, 1.0, size=(4, 4))
    img = np.kron(coarse, np.ones((_SIDE // 4, _SIDE // 4)))
    img = ndimage.uniform_filter(img, size=5, mode="nearest")
    img = ndimage.uniform_filter(img, size=5, mode="nearest")
    return img


def make_cluster_dataset(n_samples: int = 2000, n_classes: int = 10):
    """Return ``(features, labels)`` with features of shape (n_samples, 256).

    Pixel values are clipped to [0, 1].  Each of the 16x16 pixels gets
    Gaussian noise of sigma 0.5; 12% of the samples mix their own
    prototype with a second one (mixing weight drawn in [0.55, 0.8], so
    the original class stays dominant) to create inter-cluster bridges.
    The random stream is seeded with 20240501.  Raises
    InvalidParameterError unless both counts are integers, by
    :func:`errors.checked_int`, ``n_classes >= 2`` and ``n_samples`` is a
    positive multiple of ``n_classes``.
    """
    n_samples, n_classes = checked_int(n_samples, "n_samples"), checked_int(n_classes, "n_classes")
    if n_classes < 2 or n_samples < n_classes or n_samples % n_classes:
        raise InvalidParameterError(
            "n_samples must be a positive multiple of n_classes >= 2, "
            f"got n_samples={n_samples}, n_classes={n_classes}"
        )
    rng = np.random.Generator(np.random.Philox(_SEED))
    protos = np.stack([_smooth_prototype(rng).ravel() for _ in range(n_classes)])

    per_class = n_samples // n_classes
    labels = np.repeat(np.arange(n_classes), per_class)
    X = protos[labels] + rng.normal(0.0, _NOISE, size=(n_samples, _SIDE * _SIDE))

    n_blend = int(round(_BLEND_FRACTION * n_samples))
    if n_blend:
        picks = rng.choice(n_samples, size=n_blend, replace=False)
        partners = rng.integers(0, n_classes - 1, size=n_blend)
        partners = np.where(partners >= labels[picks], partners + 1, partners)
        t = rng.uniform(0.55, 0.8, size=n_blend)
        blended = t[:, None] * protos[labels[picks]] + (1.0 - t[:, None]) * protos[partners]
        X[picks] = blended + rng.normal(0.0, _NOISE, size=(n_blend, _SIDE * _SIDE))

    np.clip(X, 0.0, 1.0, out=X)
    return X, labels
