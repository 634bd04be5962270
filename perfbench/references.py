"""Correctness references that the benchmark computes apart from ``repro``.

Each function here uses numpy only, so ``selftest.py`` can check it against
hand-worked cases without the program under test.
"""

from __future__ import annotations

import numpy as np


def conv2d_direct(x, weight, bias=None, stride=1, pad=0, groups=1):
    """Convolution as a sum of shifted input windows, one kernel tap at a time.

    ``x`` is (N, C, H, W) and ``weight`` (O, C // groups, KH, KW). The result
    keeps the operands' dtype family: int64 inputs give an exact integer
    convolution, float64 inputs a float64 one.
    """
    n, c, h, w = x.shape
    out_c, c_group, kh, kw = weight.shape
    if c != c_group * groups or out_c % groups:
        raise ValueError("channel counts do not match the group count")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, out_c, oh, ow), dtype=np.result_type(x, weight))
    o_group = out_c // groups
    for g in range(groups):
        xs = xp[:, g * c_group : (g + 1) * c_group]
        ws = weight[g * o_group : (g + 1) * o_group]
        for i in range(kh):
            for j in range(kw):
                window = xs[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
                out[:, g * o_group : (g + 1) * o_group] += np.einsum("nchw,oc->nohw", window, ws[:, :, i, j])
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def central_difference(loss, array, index, eps):
    """d loss / d array[index] by central differences; ``array`` is restored."""
    old = array[index]
    try:
        array[index] = old + eps
        up = loss()
        array[index] = old - eps
        down = loss()
    finally:
        array[index] = old
    return (up - down) / (2.0 * eps)


def gradient_agrees(numeric, analytic, rtol=1e-3, atol=1e-7):
    """True if a finite-difference and an analytic derivative agree."""
    return abs(numeric - analytic) <= atol + rtol * max(abs(numeric), abs(analytic))


def outlier_share(activations, thresholds):
    """Share of nonzero activations whose magnitude exceeds the layer threshold.

    ``activations`` and ``thresholds`` are parallel sequences (one entry per
    layer); the share is pooled over all of them.
    """
    above = 0
    nonzero = 0
    for act, threshold in zip(activations, thresholds):
        mags = np.abs(act)
        above += int((mags > threshold).sum())
        nonzero += int(np.count_nonzero(act))
    return above / nonzero if nonzero else 0.0


def ordering_violations(totals):
    """Check OLAccel < ZeNA < Eyeriss in cycles and energy.

    ``totals`` maps (network, ratio, bits) to ``{family: (cycles, energy)}``
    with families ``olaccel``, ``zena`` and ``eyeriss``. Returns a list of
    human-readable violations (empty when the property holds).
    """
    bad = []
    for key, fam in sorted(totals.items()):
        for what, slot in (("cycles", 0), ("energy", 1)):
            o, z, e = fam["olaccel"][slot], fam["zena"][slot], fam["eyeriss"][slot]
            if not o < z < e:
                bad.append(f"{key}: {what} olaccel={o:.6g} zena={z:.6g} eyeriss={e:.6g}")
    return bad
