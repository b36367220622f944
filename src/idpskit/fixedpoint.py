"""Saturating fixed-point inference: the software model of the FPGA path.

All arithmetic after input conversion is integer-only: Q-format
multiply-accumulate in an exact wide accumulator, round-half-to-even
rescaling, saturation at the format limits, and a 256-entry lookup-table
tanh with linear interpolation. Softmax is never computed here; argmax of
the final-layer accumulators picks the same class.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RangeExceededError
from .mlp import Network

LUT_SIZE = 256
LUT_LO = -4.0  # table spans [-4, 4) in steps of 1/32, zero exactly at entry 128
MIN_FRAC_BITS = 5  # the 1/32 = 2**-5 table grid must be a whole number of raw units


@dataclass(frozen=True)
class FixedFormat:
    """Two's-complement Q format: total word width and fractional bits."""

    total_bits: int = 16
    frac_bits: int = 12

    def __post_init__(self):
        if not 0 < self.frac_bits < self.total_bits <= 32:
            raise ValueError(
                f"need 0 < frac_bits < total_bits <= 32, "
                f"got Q{self.total_bits - self.frac_bits}.{self.frac_bits}"
            )

    @property
    def scale(self):
        return 1 << self.frac_bits

    @property
    def min_int(self):
        return -(1 << (self.total_bits - 1))

    @property
    def max_int(self):
        return (1 << (self.total_bits - 1)) - 1

    def __str__(self):
        return f"q{self.total_bits - self.frac_bits}.{self.frac_bits}"

    @classmethod
    def parse(cls, text: str) -> "FixedFormat":
        """Parse 'q<int_bits>.<frac_bits>', e.g. q4.12 -> 16-bit words."""
        body = text.strip().lower()
        if not body.startswith("q") or "." not in body:
            raise ValueError(f"bad fixed-point format {text!r}, expected e.g. q4.12")
        int_part, frac_part = body[1:].split(".", 1)
        try:
            int_bits, frac_bits = int(int_part), int(frac_part)
        except ValueError:
            raise ValueError(f"bad fixed-point format {text!r}") from None
        return cls(total_bits=int_bits + frac_bits, frac_bits=frac_bits)


def _saturate(v: int, f: FixedFormat) -> int:
    return min(max(v, f.min_int), f.max_int)


def to_fixed(x: float, f: FixedFormat) -> int:
    """Round-half-to-even of x * 2^frac_bits, saturated to the word range."""
    return _saturate(int(np.rint(x * f.scale)), f)


def from_fixed(i: int, f: FixedFormat) -> float:
    return i / f.scale


def div_round_even(num: int, den: int) -> int:
    """Integer division with round-half-to-even; den must be positive."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


def build_tanh_lut(f: FixedFormat) -> list:
    """256 tanh samples at (i - 128)/32, quantized to the format."""
    return [to_fixed(math.tanh((i - 128) / 32.0), f) for i in range(LUT_SIZE)]


@dataclass(frozen=True)
class QNetwork:
    """Integer-quantized network plus its activation table.

    weights[l][j][i] and biases[l][j] are plain Python ints in the given
    format; source_checksum records the digest of the float model file the
    quantization came from.
    """

    weights: list
    biases: list
    tanh_lut: list
    format: FixedFormat
    layer_sizes: tuple
    source_checksum: str = ""


def quantize_network(net: Network, f: FixedFormat,
                     source_checksum: str = "") -> QNetwork:
    """Convert every weight and bias to fixed point and build the tanh LUT.

    Raises RangeExceededError naming the first layer whose parameters do
    not fit the format. Interpolation indexing needs frac_bits >=
    MIN_FRAC_BITS.
    """
    if f.frac_bits < MIN_FRAC_BITS:
        raise ValueError(f"LUT interpolation requires frac_bits >= {MIN_FRAC_BITS}")
    q_weights, q_biases = [], []
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        max_abs = float(max(np.abs(W).max(), np.abs(b).max()))
        rounded_w = np.rint(np.asarray(W, dtype=np.float64) * f.scale)
        rounded_b = np.rint(np.asarray(b, dtype=np.float64) * f.scale)
        hi = max(rounded_w.max(), rounded_b.max())
        lo = min(rounded_w.min(), rounded_b.min())
        if hi > f.max_int or lo < f.min_int:
            raise RangeExceededError(l, max_abs, f.max_int / f.scale)
        q_weights.append([[int(v) for v in row] for row in rounded_w])
        q_biases.append([int(v) for v in rounded_b])
    return QNetwork(
        weights=q_weights,
        biases=q_biases,
        tanh_lut=build_tanh_lut(f),
        format=f,
        layer_sizes=net.layout.sizes,
        source_checksum=source_checksum,
    )


def lut_tanh(v: int, lut: list, f: FixedFormat) -> int:
    """Table tanh with linear interpolation; clamps beyond the table ends."""
    step = 1 << (f.frac_bits - MIN_FRAC_BITS)  # grid spacing 1/32 in raw units
    lo = -(4 << f.frac_bits)
    hi = lo + (LUT_SIZE - 1) * step
    if v <= lo:
        return lut[0]
    if v >= hi:
        return lut[-1]
    u = v - lo
    idx = u // step
    rem = u - idx * step
    base = lut[idx]
    return base + div_round_even((lut[idx + 1] - base) * rem, step)


def q_forward(qnet: QNetwork, x):
    """Integer-only forward pass.

    x is a scaled [0, 1] float vector; it is converted to the format once
    and everything after is exact integer arithmetic. Returns (class id,
    final-layer accumulator vector); the class is the argmax with ties to
    the lowest index.
    """
    f = qnet.format
    act = [to_fixed(float(v), f) for v in np.asarray(x, dtype=np.float64)]
    n_layers = len(qnet.weights)
    for l in range(n_layers):
        rows = qnet.weights[l]
        bias = qnet.biases[l]
        nxt = []
        for j, row in enumerate(rows):
            acc = bias[j] << f.frac_bits
            for w, a in zip(row, act):
                acc += w * a
            v = _saturate(div_round_even(acc, f.scale), f)
            if l < n_layers - 1:
                v = lut_tanh(v, qnet.tanh_lut, f)
            nxt.append(v)
        act = nxt
    best = 0
    for j in range(1, len(act)):
        if act[j] > act[best]:
            best = j
    return best, act


def accumulator_dtype(f: FixedFormat, fan_in: int):
    """int64 when a layer's accumulator provably fits it, else object.

    Each of the fan_in products and the shifted bias is at most
    2^(2*(total_bits-1)) in magnitude, so the sum needs
    2*(total_bits-1) + ceil(log2(fan_in+1)) bits plus a sign bit. Above
    63 bits the layer runs on Python ints (object arrays), which are exact
    at any width.
    """
    # int.bit_length(n) == ceil(log2(n + 1)) for n >= 0
    headroom = 2 * (f.total_bits - 1) + fan_in.bit_length() + 1
    return np.int64 if headroom <= 63 else object


def _div_round_even_array(num, den: int):
    """Elementwise div_round_even; den must be positive."""
    q = num // den
    twice = 2 * (num - q * den)
    return q + ((twice > den) | ((twice == den) & (q % 2 == 1)))


def _lut_tanh_array(v: np.ndarray, lut: np.ndarray, f: FixedFormat):
    """Elementwise lut_tanh of saturated int64 words."""
    step = 1 << (f.frac_bits - MIN_FRAC_BITS)
    lo = -(4 << f.frac_bits)
    hi = lo + (LUT_SIZE - 1) * step
    u = np.clip(v, lo, hi - 1) - lo
    idx = u // step
    base = lut[idx]
    inner = base + _div_round_even_array((lut[idx + 1] - base) * (u - idx * step),
                                         step)
    return np.where(v <= lo, lut[0], np.where(v >= hi, lut[-1], inner))


def q_forward_batch(qnet: QNetwork, X):
    """q_forward over the rows of X at once, with the same integer results.

    Returns (classes, final-layer values): an (n,) int64 class vector and
    the (n, k) int64 matrix whose rows equal q_forward's output lists.
    Each layer accumulates in the dtype accumulator_dtype picks for it, so
    no sum can wrap.
    """
    f = qnet.format
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if not np.all(np.isfinite(X)):
        raise ValueError("fixed-point inputs must be finite")
    act = np.clip(np.rint(X * f.scale), f.min_int, f.max_int).astype(np.int64)
    lut = np.array(qnet.tanh_lut, dtype=np.int64)
    n_layers = len(qnet.weights)
    for l in range(n_layers):
        dtype = accumulator_dtype(f, act.shape[1])
        W = np.array(qnet.weights[l], dtype=dtype)
        b = np.array(qnet.biases[l], dtype=dtype)
        acc = act.astype(dtype, copy=False) @ W.T + b * f.scale
        v = np.clip(_div_round_even_array(acc, f.scale), f.min_int, f.max_int)
        act = v.astype(np.int64)
        if l < n_layers - 1:
            act = _lut_tanh_array(act, lut, f)
    return np.argmax(act, axis=1).astype(np.int64), act


def q_predict_class(qnet: QNetwork, X) -> np.ndarray:
    """Vector of q_forward classes for a matrix of scaled rows."""
    return q_forward_batch(qnet, X)[0]
