"""Synthetic image-classification datasets.

The paper evaluates on MNIST and Fashion-MNIST.  This environment is
offline, so we generate *synthetic equivalents*: 10-class datasets of
flattened grayscale images built from smooth class prototypes plus
structured noise.  The MNIST-like preset uses well-separated prototypes
(a one-hidden-layer MLP reaches ~95% accuracy, as in the paper); the
FMNIST-like preset mixes neighbouring prototypes and adds more noise so
the same architecture plateaus around ~80%, mirroring the paper's
relative difficulty.  See DESIGN.md §1 for the substitution rationale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ImageDataset", "make_image_dataset", "class_prototypes"]


@dataclass
class ImageDataset:
    """A flat-image classification dataset.

    Attributes
    ----------
    x_train, y_train, x_test, y_test:
        Arrays with shapes ``(n, d)`` / ``(n,)``.
    n_classes:
        Number of label classes.
    name:
        Human-readable dataset tag.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int
    name: str

    @property
    def input_dim(self) -> int:
        return self.x_train.shape[1]

    def __len__(self) -> int:
        return self.x_train.shape[0]


def class_prototypes(
    n_classes: int,
    side: int,
    rng: np.random.Generator,
    coarse: int = 4,
) -> np.ndarray:
    """Generate smooth per-class prototype images.

    Each prototype is a ``coarse x coarse`` random grid bilinearly
    upsampled to ``side x side`` — spatially smooth patterns, like the
    low-frequency content that separates digit classes.  Returns an
    array of shape ``(n_classes, side * side)`` normalized to unit norm.
    """
    protos = np.empty((n_classes, side * side), dtype=np.float64)
    xs = np.linspace(0, coarse - 1, side)
    x0 = np.floor(xs).astype(int).clip(0, coarse - 2)
    frac = xs - x0
    for c in range(n_classes):
        grid = rng.normal(size=(coarse, coarse))
        # separable bilinear upsample: rows then columns
        rows = grid[x0, :] * (1 - frac)[:, None] + grid[x0 + 1, :] * frac[:, None]
        img = rows[:, x0] * (1 - frac)[None, :] + rows[:, x0 + 1] * frac[None, :]
        flat = img.reshape(-1)
        protos[c] = flat / np.linalg.norm(flat)
    return protos


@functools.cache
def _label_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The label and the confuser of each pair code ``r < k * (k - 1)``:
    ``r // (k - 1)`` is a uniform label and ``r % (k - 1) + 1`` an
    independent uniform non-zero offset from it to the confuser."""
    codes = np.arange(k * (k - 1))
    labels = codes // (k - 1)
    confusers = (labels + codes % (k - 1) + 1) % k
    labels.flags.writeable = confusers.flags.writeable = False  # cached, shared
    return labels, confusers


def _sample_images(
    n: int,
    protos: np.ndarray,
    mix: float,
    noise: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` labelled images in three draws from ``rng``.

    One ``integers`` draw over the ``k * (k - 1)`` (label, confuser)
    pairs gives both (:func:`_label_pairs`); the "confuser" is another
    class whose prototype is mixed in, as FMNIST classes
    (shirt/pullover/coat) overlap with their neighbours.  Amplitudes
    come from ``random`` and noise from ``standard_normal``.  An image
    is the scaled label prototype, ``mix`` of the confuser's, and
    ``noise`` per unit norm of white noise (:func:`_mix_images`).  Every
    image dataset, fleet shard and test split is drawn here.
    """
    k, d = protos.shape
    codes, amplitude, z = np.empty(n, np.int64), np.empty((n, 1)), np.empty((n, d))
    _draw_images(rng, k, codes, amplitude, z)
    return _mix_images(codes, amplitude, z, protos, mix, noise)


def _draw_images(
    rng: np.random.Generator, k: int, codes: np.ndarray, amplitude: np.ndarray, z: np.ndarray
) -> None:
    """:func:`_sample_images`' three draws, into ``n`` rows of ``codes``
    ``(n,)``, ``amplitude`` ``(n, 1)`` and ``z`` ``(n, d)``: the same
    numbers as drawing each at its shape."""
    codes[...] = rng.integers(0, k * (k - 1), size=codes.shape[0])
    rng.random(out=amplitude)
    rng.standard_normal(out=z)


def _mix_images(
    codes: np.ndarray,
    amplitude: np.ndarray,
    z: np.ndarray,
    protos: np.ndarray,
    mix: float,
    noise: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The images of :func:`_draw_images`' rows (any number of draws
    stored back to back), elementwise, so each row is the same as if it
    were mixed alone.  ``amplitude`` and ``z`` are overwritten."""
    labels, confusers = _label_pairs(protos.shape[0])
    y = labels.take(codes)
    # ``(0.8 + 0.4 * u) * protos[y] + mix * protos[confuser] + noise * z / sqrt(d)``,
    # evaluated in place in that order of operations
    amplitude *= 0.4
    amplitude += 0.8
    x = protos.take(y, axis=0)
    x *= amplitude
    mixed = protos.take(confusers.take(codes), axis=0)
    mixed *= mix
    x += mixed
    z *= noise
    z /= math.sqrt(protos.shape[1])
    x += z
    return x, y


def make_image_dataset(
    name: str,
    n_train: int,
    n_test: int,
    side: int = 8,
    n_classes: int = 10,
    difficulty: str = "easy",
    seed: int = 0,
) -> ImageDataset:
    """Build a synthetic image dataset.

    Parameters
    ----------
    difficulty:
        ``"easy"`` (MNIST-like: ~95% reachable) or ``"hard"``
        (FMNIST-like: ~80% reachable with the same model).
    side:
        Images are ``side x side`` (the paper uses 28; the scaled-down
        presets use 8 so a full federated sweep runs in seconds).
    """
    if difficulty == "easy":
        mix, noise = 0.15, 1.8
    elif difficulty == "hard":
        mix, noise = 0.55, 1.8
    else:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    rng = np.random.default_rng(seed)
    protos = class_prototypes(n_classes, side, rng)
    x_train, y_train = _sample_images(n_train, protos, mix, noise, rng)
    x_test, y_test = _sample_images(n_test, protos, mix, noise, rng)
    return ImageDataset(
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        n_classes=n_classes,
        name=name,
    )
