"""Batched frequency-domain aerial images vs the seed per-kernel loop.

The batch-first :func:`repro.litho.aerial_image` replaces one ``fftconvolve``
per SOCS kernel with a single padded mask FFT multiplied against cached
kernel transfer functions, which pack two real kernel parts per complex
transform.  These tests pin the contract of that refactor: numerical
equivalence with :func:`repro.litho.aerial_image_loop` (within 1e-8, and
within 1e-12 for the pairing across focus), batch/single consistency, the
packed stack length, and the caching behaviour of
:class:`repro.litho.SOCSKernels`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.litho import (
    LithoSimulator,
    OpticalSettings,
    aerial_image,
    aerial_image_loop,
)
from repro.litho.kernels import _PART_TOLERANCE


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=12)


def _random_masks(n: int, size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.7).astype(float)


# --------------------------------------------------------------------- #
# Equivalence with the seed per-kernel fftconvolve algorithm
# --------------------------------------------------------------------- #
def test_batched_matches_loop_single_mask(simulator):
    mask = _random_masks(1, 64)[0]
    np.testing.assert_allclose(
        aerial_image(mask, simulator.kernels),
        aerial_image_loop(mask, simulator.kernels),
        atol=1e-8,
    )


def test_batched_matches_loop_on_batch(simulator):
    masks = _random_masks(5, 48)
    reference = np.stack([aerial_image_loop(m, simulator.kernels) for m in masks])
    np.testing.assert_allclose(aerial_image(masks, simulator.kernels), reference, atol=1e-8)


def test_batched_matches_loop_unnormalized_and_dosed(simulator):
    mask = _random_masks(1, 32)[0]
    batched = aerial_image(mask, simulator.kernels, normalize=False, dose=1.05)
    loop = aerial_image_loop(mask, simulator.kernels, normalize=False, dose=1.05)
    np.testing.assert_allclose(batched, loop, rtol=1e-8)


def test_batch_entries_independent(simulator):
    """Each batch entry equals its own single-mask simulation."""
    masks = _random_masks(3, 32)
    batched = aerial_image(masks, simulator.kernels)
    for i, mask in enumerate(masks):
        np.testing.assert_allclose(batched[i], aerial_image(mask, simulator.kernels), atol=1e-12)


def test_non_square_masks(simulator):
    rng = np.random.default_rng(3)
    masks = (rng.random((2, 40, 56)) > 0.7).astype(float)
    reference = np.stack([aerial_image_loop(m, simulator.kernels) for m in masks])
    out = aerial_image(masks, simulator.kernels)
    assert out.shape == (2, 40, 56)
    np.testing.assert_allclose(out, reference, atol=1e-8)


# --------------------------------------------------------------------- #
# Pairing real kernel parts two to a transform
# --------------------------------------------------------------------- #
def _workload_kernels(defocus: float = 0.0, num_kernels: int = 10):
    settings = OpticalSettings(defocus=defocus)
    return LithoSimulator(
        pixel_size=8.0, num_kernels=num_kernels, kernel_support=31, settings=settings
    ).kernels


def _kept_parts(kernels) -> int:
    """Real and imaginary parts above the drop tolerance, counted directly."""
    kept = 0
    for alpha, kernel in zip(kernels.eigenvalues, kernels.kernels):
        if alpha <= 0.0:
            continue
        floor = _PART_TOLERANCE * np.linalg.norm(kernel)
        kept += sum(np.linalg.norm(part) > floor for part in (kernel.real, kernel.imag))
    return kept


@pytest.mark.parametrize(
    "defocus, num_kernels", [(0.0, 10), (40.0, 10), (120.0, 10), (0.0, 7), (40.0, 5)]
)
def test_paired_aerial_matches_loop(defocus, num_kernels):
    kernels = _workload_kernels(defocus, num_kernels)
    mask = _random_masks(1, 72, seed=11)[0]
    np.testing.assert_allclose(
        aerial_image(mask, kernels), aerial_image_loop(mask, kernels), rtol=0, atol=1e-12
    )


def test_odd_part_count_is_padded():
    """7 in-focus kernels leave 7 real-or-imaginary parts: the last pairs
    with zero, and the image still matches the per-kernel loop."""
    kernels = _workload_kernels(0.0, 7)
    assert _kept_parts(kernels) == 7
    weighted = kernels.weighted_transfer_functions((64, 64))
    assert weighted.shape[0] == 4
    # The last transform packs one real part with zero: a real kernel.
    last = np.fft.ifft2(weighted[-1])
    assert np.abs(last.imag).max() <= 1e-15 * np.abs(last.real).max()


@pytest.mark.parametrize("defocus, expected", [(0.0, 5), (40.0, 10), (120.0, 10)])
def test_paired_stack_length(defocus, expected):
    """In-focus kernels are real or imaginary, so 10 pack into 5 transforms;
    defocused kernels are complex and keep all 10."""
    kernels = _workload_kernels(defocus)
    assert kernels.weighted_transfer_functions((64, 64)).shape[0] == expected
    assert expected == math.ceil(_kept_parts(kernels) / 2)


def test_loop_rejects_batches(simulator):
    with pytest.raises(ValueError):
        aerial_image_loop(np.zeros((2, 16, 16)), simulator.kernels)


# --------------------------------------------------------------------- #
# SOCSKernels caching
# --------------------------------------------------------------------- #
def test_weighted_transfer_functions_cached_per_shape(simulator):
    kernels = simulator.kernels
    weighted = kernels.weighted_transfer_functions((80, 80))
    assert weighted.shape == (math.ceil(_kept_parts(kernels) / 2), 80, 80)
    assert kernels.weighted_transfer_functions((80, 80)) is weighted
    assert kernels.weighted_transfer_functions((96, 96)) is not weighted


def test_clear_field_intensity_memoized(simulator):
    kernels = simulator.kernels
    value = kernels.clear_field_intensity()
    assert value > 0.0
    assert kernels.clear_field_intensity() == value


def test_simulator_aerial_accepts_batches(simulator):
    masks = _random_masks(3, 32)
    aerial = simulator.aerial(masks)
    assert aerial.shape == masks.shape
    np.testing.assert_allclose(aerial[1], simulator.aerial(masks[1]), atol=1e-12)
