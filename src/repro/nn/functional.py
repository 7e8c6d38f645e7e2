"""Fused differentiable operations on 4-D image tensors.

All operations here work on tensors shaped ``(N, C, H, W)`` (batch, channel,
height, width) — the layout used throughout the paper's architecture tables —
and register analytic backward passes with the autograd graph defined in
:mod:`repro.nn.tensor`.

Convolutions reduce to dense matrix multiplications, which is the fastest
strategy available with a pure NumPy backend for the small kernel sizes
(3x3 / 4x4) used by DOINN, UNet and DAMO-DLS.  The hot path is zero-copy:
patches are expressed as a :func:`numpy.lib.stride_tricks.sliding_window_view`
over the (padded) input — a view, not a materialized ``(N, C*kh*kw, L)``
patch matrix — and the contraction against the weights runs as one GEMM via
``np.tensordot``, whose internal packing of the view is the only copy made.
The fused eval kernel :func:`conv_bn_act` packs the view in row blocks of at
most :data:`PACK_BLOCK_BYTES`, so full-mask layers stay cache sized.
The explicit ``im2col``/``col2im`` pair is kept for the adjoint passes and
for callers that need the patch matrix itself.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensor import Tensor

__all__ = [
    "conv2d",
    "conv_bn_act",
    "conv_transpose2d",
    "conv_transpose_bn_act",
    "avg_pool2d",
    "max_pool2d",
    "batch_norm2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "upsample_nearest2d",
]


# ---------------------------------------------------------------------- #
# im2col / col2im
# ---------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1




def _window_view(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Zero-copy sliding-window view ``(N, C, H_out, W_out, kh, kw)`` of ``x``.

    For ``stride == 1`` this is a pure view of the (padded) input; larger
    strides slice the view, which stays copy-free.  Every conv forward/adjoint
    consumes this view directly, so no ``(N, C*kh*kw, L)`` patch matrix is ever
    materialized on the hot path.
    """
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Built on the sliding-window view: the single copy happens in the final
    ``reshape`` (the transposed view is not contiguous); the seed slice-loop
    implementation is pinned against this one in ``tests/pipeline``.

    Parameters
    ----------
    x:
        Array of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(N, C * kh * kw, H_out * W_out)``.
    """
    windows = _window_view(x, kh, kw, stride, padding)
    n, c, h_out, w_out = windows.shape[:4]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, h_out * w_out)


def col2im(
    cols: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add patches back into an image).

    When ``stride >= kh`` and ``stride >= kw`` the patch windows are disjoint,
    so the scatter-add degenerates to a single vectorized assignment over the
    whole kernel window (a strided 6-D view of the output with no aliasing).
    Overlapping windows keep the per-offset loop: each of the ``kh * kw``
    iterations is a fully vectorized strided add, and overlapping destinations
    cannot be written through one view without undefined aliasing.
    """
    n, c, h, w = image_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = _conv_output_size(h, kh, stride, padding)
    w_out = _conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    # repro: ok(ALLOC001, col2im is the autograd/training adjoint, not the fused eval hot path)
    image = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    if stride >= kh and stride >= kw:
        sn, sc, sh, sw = image.strides
        scatter = as_strided(
            image,
            shape=(n, c, h_out, kh, w_out, kw),
            strides=(sn, sc, sh * stride, sh, sw * stride, sw),
        )
        scatter[:] = cols.transpose(0, 1, 4, 2, 5, 3)
    else:
        for i in range(kh):
            i_end = i + stride * h_out
            for j in range(kw):
                j_end = j + stride * w_out
                image[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return image[:, :, padding:-padding, padding:-padding]
    return image


# ---------------------------------------------------------------------- #
# Convolution
# ---------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation, PyTorch convention).

    ``weight`` has shape ``(C_out, C_in, kh, kw)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d: input has {c_in} channels, weight expects {c_in_w}")
    windows = _window_view(x.data, kh, kw, stride, padding)  # view: (N, C_in, HO, WO, kh, kw)
    h_out, w_out = windows.shape[2], windows.shape[3]
    # One GEMM per sample; tensordot's internal packing of the view is the
    # only copy, vs. materializing the full patch matrix with im2col.  The
    # per-sample loop is deliberate, not a fallback: each pack stays
    # cache-resident (a whole-batch pack made bs=4 ~35% slower per sample
    # than bs=1 on the DOINN 32-channel 64x64 tiles), and each sample's GEMM
    # shape is independent of the batch partitioning, so outputs are
    # bit-identical however a stream is batched or sharded across workers
    # (BLAS picks different, differently-rounding kernels per matrix shape).
    # repro: ok(ALLOC001, unfused autograd conv2d; the fused eval path owns the cached buffers)
    out = np.empty((n, c_out, h_out, w_out), dtype=np.result_type(windows, weight.data))
    for i in range(n):
        part = np.tensordot(windows[i], weight.data, axes=([0, 3, 4], [1, 2, 3]))
        out[i] = part.transpose(2, 0, 1)                     # (C_out, HO, WO)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            grad_w = np.tensordot(grad, windows, axes=([0, 2, 3], [0, 2, 3]))
            weight.accumulate_grad(grad_w)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            w_mat = weight.data.reshape(c_out, -1)           # (C_out, C_in*kh*kw)
            grad_mat = grad.reshape(n, c_out, -1)            # (N, C_out, L)
            grad_cols = np.matmul(w_mat.T, grad_mat)         # (N, C_in*kh*kw, L)
            x.accumulate_grad(col2im(grad_cols, x.shape, kh, kw, stride, padding))

    return Tensor.from_op(out, parents, backward)


#: Activation kinds understood by :func:`conv_bn_act` /
#: :func:`conv_transpose_bn_act` (and the fused graphs built on them by
#: :mod:`repro.nn.fusion`).
FUSED_ACTIVATIONS = ("identity", "relu", "leaky_relu", "tanh")


#: Byte budget of one packed patch block in :func:`conv_bn_act`: about a
#: per-core L2/L3 share, and below glibc's largest mmap threshold, so the
#: pack buffer is reused from the heap instead of page-faulted in per call.
PACK_BLOCK_BYTES = 4 * 1024 * 1024


def pack_block_rows(c_in: int, kh: int, kw: int, h_out: int, w_out: int, dtype) -> int:
    """Output rows per packed block of :func:`conv_bn_act` for one layer geometry.

    A row of output pixels packs ``C_in*kh*kw*W_out`` patch entries; as many
    rows as fit in :data:`PACK_BLOCK_BYTES` (at least one, at most
    ``h_out``) form one block.  Only the geometry and dtype enter, never the
    batch size, which keeps the GEMM shapes partition invariant.
    """
    row_bytes = c_in * kh * kw * w_out * np.dtype(dtype).itemsize
    return max(1, min(h_out, PACK_BLOCK_BYTES // row_bytes))


def _check_fused_activation(activation: str, negative_slope: float) -> None:
    if activation not in FUSED_ACTIVATIONS:
        raise ValueError(f"unknown fused activation {activation!r}; expected one of {FUSED_ACTIVATIONS}")
    if activation == "leaky_relu" and not 0.0 <= negative_slope < 1.0:
        # The in-place max(x, slope*x) identity below needs slope in [0, 1).
        raise ValueError(f"fused leaky_relu requires 0 <= negative_slope < 1, got {negative_slope}")


def _apply_activation_inplace(arr: np.ndarray, activation: str, negative_slope: float) -> None:
    """Apply a fused activation in place on a cache-hot array."""
    if activation == "leaky_relu":
        # max(x, slope*x) == leaky_relu(x) for slope in [0, 1), in place.
        np.maximum(arr, arr * negative_slope, out=arr)
    elif activation == "relu":
        np.maximum(arr, 0.0, out=arr)
    elif activation == "tanh":
        np.tanh(arr, out=arr)


def conv_bn_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str = "identity",
    negative_slope: float = 0.01,
    input_is_padded: bool = False,
    output_padding: int = 0,
    out: np.ndarray | None = None,
    gemm: np.ndarray | None = None,
    stacked: bool = False,
) -> np.ndarray:
    """Fused inference kernel: conv (+ folded BN affine) (+ activation), one pass.

    This is the eval-mode hot path compiled by :mod:`repro.nn.fusion`: the
    batch-norm affine is folded into ``weight``/``bias`` ahead of time, and the
    activation is applied to each GEMM output block while it is still cache
    resident — instead of three separate passes (conv, batch norm,
    activation) over a working set that spills the per-core cache.

    Each sample runs in **row blocks**: a block of output rows packs only its
    own ``(C_in*kh*kw, rows*W_out)`` slice of the patch matrix, multiplies it
    into the matching output columns, and applies bias and activation in
    place.  ``rows`` (:func:`pack_block_rows`) keeps the pack within
    :data:`PACK_BLOCK_BYTES` and depends on the layer geometry alone, so a
    full-mask layer never packs its whole image at once, and serial, pooled
    and any batch partitioning run identical GEMMs (bit-identical outputs).

    Operates on plain ndarrays (no autograd); training forwards keep using
    :func:`conv2d` / :func:`batch_norm2d` unchanged.

    Parameters
    ----------
    input_is_padded:
        The spatial border of ``x`` already carries this op's ``padding``
        zeros (produced by a previous fused op via ``output_padding``), so the
        per-call ``np.pad`` copy is skipped entirely.
    output_padding:
        Emit the result inside a zero border of this width, ready to be
        consumed pad-free by a following conv with ``padding ==
        output_padding`` — the "pad once" half of the fusion win.
    out:
        Optional preallocated ``(N, C_out, H_out + 2*output_padding, W_out +
        2*output_padding)`` buffer whose border is already zero (a fused
        chain's scratch cache); only the interior is written.
    gemm:
        Optional GEMM scratch (a fused chain's buffer cache).  On the
        bordered per-sample path (``output_padding > 0``) it holds one row
        block's ``(C_out, rows*W_out)`` output before the copy into the
        bordered interior; on the ``stacked`` path it holds the whole
        batch's ``(N*L, C_out)`` result.  Fully rewritten every call, no
        zero-border contract.
    stacked:
        Stack every sample's patch matrix into one ``(N*L, C_in*kh*kw)``
        GEMM (the threaded-BLAS backend lane) instead of the per-sample row
        blocks.  Faster when BLAS is threaded, but the GEMM shape now
        depends on ``N``, so results are only tolerance-equivalent across
        batch partitionings — the per-sample default stays the
        bit-identical reference.
    """
    _check_fused_activation(activation, negative_slope)
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, _, _ = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_bn_act: input has {c_in} channels, weight expects {c_in_w}")
    if input_is_padded or padding == 0:
        windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
        if stride > 1:
            windows = windows[:, :, ::stride, ::stride]
    else:
        windows = _window_view(x, kh, kw, stride, padding)
    h_out, w_out = windows.shape[2], windows.shape[3]
    oh, ow = h_out + 2 * output_padding, w_out + 2 * output_padding
    dtype = np.result_type(windows, weight)
    if out is None:
        # repro: ok(ALLOC001, the chain's returned output: FusedChain passes its last op out=None since callers hold it)
        alloc = np.zeros if output_padding else np.empty
        out = alloc((n, c_out, oh, ow), dtype=dtype)
    elif out.shape != (n, c_out, oh, ow) or out.dtype != dtype:
        raise ValueError(
            f"conv_bn_act: out buffer has shape {out.shape} dtype {out.dtype}, "
            f"expected {(n, c_out, oh, ow)} dtype {dtype}"
        )
    # The (C_out, C_in*kh*kw) weight matrix is a free view of the PyTorch
    # weight layout — no per-call weight pack (tensordot repacks it every
    # call).  The patch pack below is the single remaining copy per block.
    w_mat = weight.reshape(c_out, -1)
    bias_col = None if bias is None else np.asarray(bias).reshape(c_out, 1)
    length = h_out * w_out
    k_len = c_in * kh * kw
    if stacked:
        # Threaded-BLAS lane: one (N*L, C_in*kh*kw) @ (C_in*kh*kw, C_out)
        # GEMM for the whole micro-batch, so a threaded BLAS has enough rows
        # to split across cores.  The transpose/reshape is the single patch
        # pack (same copy count as the per-sample loop, one bigger buffer).
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * length, k_len)
        if gemm is None:
            # repro: ok(ALLOC001, scratch fallback when the caller passes no buffer; FusedChain passes its cached one)
            gemm = np.empty((n * length, c_out), dtype=dtype)
        elif gemm.shape != (n * length, c_out) or gemm.dtype != dtype:
            raise ValueError(
                f"conv_bn_act: gemm buffer has shape {gemm.shape} dtype {gemm.dtype}, "
                f"expected {(n * length, c_out)} dtype {dtype}"
            )
        part = np.matmul(cols, w_mat.T, out=gemm)
        if bias is not None:
            part += np.asarray(bias).reshape(1, c_out)
        _apply_activation_inplace(part, activation, negative_slope)
        out[:, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out] = (
            part.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)
        )
        return out
    # Row-blocked pack: each sample's (C_in*kh*kw, H_out*W_out) patch matrix
    # is packed and multiplied a block of output rows at a time, so the pack
    # stays within PACK_BLOCK_BYTES (cache-sized) instead of growing with the
    # image -- a 32-channel 3x3 layer on a 448x256 mask would otherwise
    # page-fault in a fresh ~264 MB pack per call.  The block size depends on
    # the layer geometry only, so every batch partition (serial, pooled, any
    # micro-batch) runs identical GEMMs and stays bit-identical.
    rows = pack_block_rows(c_in, kh, kw, h_out, w_out, dtype)
    if output_padding:
        # The bordered path cannot GEMM straight into the output interior
        # (the border makes the rows non-contiguous), so each block lands in
        # a (C_out, rows*W_out) scratch first -- cached by the fused chain,
        # not a fresh allocation per block per call.
        block_shape = (c_out, rows * w_out)
        if gemm is None:
            # repro: ok(ALLOC001, scratch fallback when the caller passes no buffer; FusedChain passes its cached one)
            gemm = np.empty(block_shape, dtype=dtype)
        elif gemm.shape != block_shape or gemm.dtype != dtype:
            raise ValueError(
                f"conv_bn_act: gemm buffer has shape {gemm.shape} dtype {gemm.dtype}, "
                f"expected {block_shape} dtype {dtype}"
            )
    for i in range(n):
        flat = None if output_padding else out[i].reshape(c_out, length)
        for r0 in range(0, h_out, rows):
            r1 = min(r0 + rows, h_out)
            span = (r1 - r0) * w_out
            # (C_in*kh*kw, rows*W_out) patch block; for 1x1 stride-1 kernels
            # the transpose is trivial and reshape returns a zero-copy view.
            cols = windows[i, :, r0:r1].transpose(0, 3, 4, 1, 2).reshape(k_len, span)
            # Borderless: GEMM straight into the block's output columns;
            # bias/activation then run in place on the cache-hot block.
            target = gemm[:, :span] if output_padding else flat[:, r0 * w_out : r1 * w_out]
            part = np.matmul(w_mat, cols, out=target)
            if bias_col is not None:
                part += bias_col
            _apply_activation_inplace(part, activation, negative_slope)
            if output_padding:
                out[i, :, output_padding + r0 : output_padding + r1, output_padding : output_padding + w_out] = (
                    part.reshape(c_out, r1 - r0, w_out)
                )
    return out


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D transposed convolution (PyTorch convention).

    ``weight`` has shape ``(C_in, C_out, kh, kw)`` and the output spatial size
    is ``(H - 1) * stride - 2 * padding + k``.
    """
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose2d: input has {c_in} channels, weight expects {c_in_w}")
    h_out = (h - 1) * stride - 2 * padding + kh
    w_out = (w - 1) * stride - 2 * padding + kw

    # Inference hot path: every step below is either a free view (the weight
    # matrix and flattened-input reshapes, and col2im's crop) or an
    # unavoidable buffer (the GEMM result and the scatter image) — the only
    # per-call allocation beyond those was the bias add, which built a whole
    # fresh output array (`out = out + bias...`); it now adds in place.
    w_mat = weight.data.reshape(c_in, -1)                    # (C_in, C_out*kh*kw)
    x_mat = x.data.reshape(n, c_in, h * w)                   # (N, C_in, H*W)
    cols = np.matmul(w_mat.T, x_mat)                         # (N, C_out*kh*kw, H*W)
    out = col2im(cols, (n, c_out, h_out, w_out), kh, kw, stride, padding)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad_cols = im2col(grad, kh, kw, stride, padding)    # (N, C_out*kh*kw, H*W)
        if x.requires_grad:
            grad_x = np.matmul(w_mat, grad_cols)             # (N, C_in, H*W)
            x.accumulate_grad(grad_x.reshape(x.shape))
        if weight.requires_grad:
            grad_w = np.tensordot(x_mat, grad_cols, axes=([0, 2], [0, 2]))
            weight.accumulate_grad(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))

    return Tensor.from_op(out, parents, backward)


def conv_transpose_bn_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str = "identity",
    negative_slope: float = 0.01,
    output_padding: int = 0,
    out: np.ndarray | None = None,
    scatter: np.ndarray | None = None,
) -> np.ndarray:
    """Fused inference kernel: transposed conv (+ folded BN) (+ activation).

    The transposed-conv mirror of :func:`conv_bn_act`, closing the last
    unfused link of the inference graphs compiled by :mod:`repro.nn.fusion`:
    ``weight`` (``(C_in, C_out, kh, kw)``, PyTorch transposed layout) already
    carries the folded eval-mode batch-norm affine, each sample runs one GEMM
    against the ``(C_in, C_out*kh*kw)`` weight matrix (a free view of the
    folded weight), and the column block is scattered back to image layout
    with a vectorized ``col2im``-style strided assignment (non-overlapping
    kernels, e.g. the UNet 2x2/stride-2 up path) or the per-offset
    scatter-add (overlapping kernels, e.g. DOINN's 4x4/stride-2 ``dconv*``).
    Bias and activation are applied in place while the output is cache hot.

    A transposed conv consumes its input unpadded (its ``padding`` *crops*
    the output), so unlike :func:`conv_bn_act` there is no
    ``input_is_padded`` switch; the crop itself is fused — the cropped result
    is emitted directly inside the ``output_padding`` zero border the next
    conv's padding needs, so a ``dconv -> conv`` chain never materializes the
    uncropped image followed by a separate pad copy.

    Operates on plain ndarrays (no autograd); training forwards keep using
    :func:`conv_transpose2d` unchanged.

    Parameters
    ----------
    output_padding:
        Emit the (cropped) result inside a zero border of this width, ready
        to be consumed pad-free by a following conv with ``padding ==
        output_padding`` via its ``input_is_padded`` contract.
    out:
        Optional preallocated ``(N, C_out, H_out + 2*output_padding, W_out +
        2*output_padding)`` buffer whose border is already zero; only the
        interior is written.
    scatter:
        Optional per-sample ``(C_out, H_out + 2*padding, W_out + 2*padding)``
        scratch for the overlapping-kernel scatter (a fused chain's buffer
        cache); it is fully rewritten every sample, so unlike ``out`` it has
        no zero-border contract.  Ignored on the non-overlapping fast path.
    """
    _check_fused_activation(activation, negative_slope)
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose_bn_act: input has {c_in} channels, weight expects {c_in_w}")
    h_out = (h - 1) * stride - 2 * padding + kh
    w_out = (w - 1) * stride - 2 * padding + kw
    oh, ow = h_out + 2 * output_padding, w_out + 2 * output_padding
    dtype = np.result_type(x, weight)
    if out is None:
        # repro: ok(ALLOC001, the chain's returned output: FusedChain passes its last op out=None since callers hold it)
        alloc = np.zeros if output_padding else np.empty
        out = alloc((n, c_out, oh, ow), dtype=dtype)
    elif out.shape != (n, c_out, oh, ow) or out.dtype != dtype:
        raise ValueError(
            f"conv_transpose_bn_act: out buffer has shape {out.shape} dtype {out.dtype}, "
            f"expected {(n, c_out, oh, ow)} dtype {dtype}"
        )
    # Non-overlapping, gap-free, crop-free kernels (stride == kh == kw,
    # padding == 0 — the UNet up path) scatter-assign straight into the
    # output buffer; everything else goes through the padded scatter image.
    direct = padding == 0 and stride == kh and stride == kw
    if not direct:
        h_pad, w_pad = h_out + 2 * padding, w_out + 2 * padding
        if scatter is None:
            # repro: ok(ALLOC001, scratch fallback when the caller passes no buffer; FusedChain passes its cached one)
            scatter = np.empty((c_out, h_pad, w_pad), dtype=dtype)
        elif scatter.shape != (c_out, h_pad, w_pad) or scatter.dtype != dtype:
            raise ValueError(
                f"conv_transpose_bn_act: scatter buffer has shape {scatter.shape} dtype "
                f"{scatter.dtype}, expected {(c_out, h_pad, w_pad)} dtype {dtype}"
            )
    # The (C_in, C_out*kh*kw) weight matrix is a free view of the folded
    # weight; BLAS consumes the transpose without a copy.  The per-sample
    # loop keeps each GEMM cache-resident and partition-invariant (outputs
    # are bit-identical however a stream is batched or sharded).
    w_mat = weight.reshape(c_in, c_out * kh * kw)
    bias_arr = None if bias is None else np.asarray(bias)
    x_flat = x.reshape(n, c_in, h * w)
    for i in range(n):
        cols = np.matmul(w_mat.T, x_flat[i])                 # (C_out*kh*kw, H*W)
        tiles = cols.reshape(c_out, kh, kw, h, w)
        if direct:
            # Bias/activation run on the GEMM output while it is cache hot
            # (every output pixel receives exactly one contribution), then
            # one strided assignment writes the kernel tiles into place.
            if bias_arr is not None:
                per_channel = cols.reshape(c_out, kh * kw * h * w)
                per_channel += bias_arr[:, None]
            _apply_activation_inplace(cols, activation, negative_slope)
            interior = out[i, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out]
            sc, sh, sw = interior.strides
            view = as_strided(
                interior,
                shape=(c_out, h, kh, w, kw),
                strides=(sc, sh * stride, sh, sw * stride, sw),
            )
            view[:] = tiles.transpose(0, 3, 1, 4, 2)
            continue
        scatter.fill(0.0)
        if stride >= kh and stride >= kw:
            # Disjoint windows: one vectorized strided assignment (gaps left
            # by stride > k stay zero from the fill).
            sc, sh, sw = scatter.strides
            view = as_strided(
                scatter,
                shape=(c_out, h, kh, w, kw),
                strides=(sc, sh * stride, sh, sw * stride, sw),
            )
            view[:] = tiles.transpose(0, 3, 1, 4, 2)
        else:
            for ki in range(kh):
                i_end = ki + stride * h
                for kj in range(kw):
                    scatter[:, ki:i_end:stride, kj : kj + stride * w : stride] += tiles[:, ki, kj]
        region = scatter[:, padding : padding + h_out, padding : padding + w_out] if padding else scatter
        if bias_arr is not None:
            region += bias_arr[:, None, None]
        _apply_activation_inplace(region, activation, negative_slope)
        out[i, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out] = region
    return out


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #
def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Non-overlapping average pooling (``stride`` defaults to ``kernel_size``)."""
    stride = stride or kernel_size
    if stride != kernel_size:
        raise NotImplementedError("avg_pool2d only supports stride == kernel_size")
    n, c, h, w = x.shape
    if h % kernel_size or w % kernel_size:
        raise ValueError(f"avg_pool2d: spatial size {(h, w)} not divisible by {kernel_size}")
    h_out, w_out = h // kernel_size, w // kernel_size
    reshaped = x.data.reshape(n, c, h_out, kernel_size, w_out, kernel_size)
    out = reshaped.mean(axis=(3, 5))

    def backward(grad: np.ndarray) -> None:
        scale = 1.0 / (kernel_size * kernel_size)
        expanded = np.repeat(np.repeat(grad, kernel_size, axis=2), kernel_size, axis=3)
        x.accumulate_grad(expanded * scale)

    return Tensor.from_op(out, (x,), backward)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Non-overlapping max pooling (``stride`` defaults to ``kernel_size``)."""
    stride = stride or kernel_size
    if stride != kernel_size:
        raise NotImplementedError("max_pool2d only supports stride == kernel_size")
    n, c, h, w = x.shape
    if h % kernel_size or w % kernel_size:
        raise ValueError(f"max_pool2d: spatial size {(h, w)} not divisible by {kernel_size}")
    h_out, w_out = h // kernel_size, w // kernel_size
    reshaped = x.data.reshape(n, c, h_out, kernel_size, w_out, kernel_size)
    windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h_out, w_out, -1)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        # repro: ok(ALLOC001, max-pool backward is training-only; gradients are not the fused hot path)
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        grad_x = (
            grad_windows.reshape(n, c, h_out, w_out, kernel_size, kernel_size)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x.accumulate_grad(grad_x)

    return Tensor.from_op(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling of the spatial dimensions by ``scale``."""
    out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)
    n, c, h, w = x.shape

    def backward(grad: np.ndarray) -> None:
        reshaped = grad.reshape(n, c, h, scale, w, scale)
        x.accumulate_grad(reshaped.sum(axis=(3, 5)))

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------- #
# Normalization
# ---------------------------------------------------------------------- #
def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel dimension of a 4-D tensor.

    ``running_mean``/``running_var`` are plain arrays owned by the calling
    layer; they are updated in place in training mode.
    """
    n, c, h, w = x.shape
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        mean_b = mean.reshape(1, c, 1, 1)
        std = np.sqrt(var.reshape(1, c, 1, 1) + eps)
        x_hat = (x.data - mean_b) / std
        out = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)
    else:
        # Inference hot path: fold the normalization into one per-channel
        # affine (two array passes instead of four); x_hat is recomputed
        # lazily in backward, which only tests exercise in eval mode.  The
        # mean is snapshotted: running_mean is the layer-owned array and a
        # training forward may mutate it in place before backward runs.
        mean, var = running_mean.copy(), running_var
        std = np.sqrt(var.reshape(1, c, 1, 1) + eps)
        scale = gamma.data.reshape(1, c, 1, 1) / std
        shift = beta.data.reshape(1, c, 1, 1) - mean.reshape(1, c, 1, 1) * scale
        out = x.data * scale + shift
        x_hat = None

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            normalized = (
                x_hat if x_hat is not None else (x.data - mean.reshape(1, c, 1, 1)) / std
            )
            gamma.accumulate_grad((grad * normalized).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = gamma.data.reshape(1, c, 1, 1)
            if training:
                grad_xhat = grad * g
                term1 = grad_xhat
                term2 = grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
                term3 = x_hat * (grad_xhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
                x.accumulate_grad((term1 - term2 - term3) / std)
            else:
                x.accumulate_grad(grad * g / std)

    return Tensor.from_op(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------- #
# Activations (thin wrappers over Tensor methods for functional style)
# ---------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()
