"""Versioned text serialization for trained and quantized models.

Both formats are line-oriented, self-describing, and written with
shortest-round-trip decimal floats so a reload is bit-exact and two runs
with the same inputs produce byte-identical files. The first line is a
format-version guard.
"""

import contextlib
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelFormatError
from .fixedpoint import LUT_SIZE, MIN_FRAC_BITS, FixedFormat, QNetwork
from .mlp import Network, NetworkLayout
from .preprocessing import RangeScaler
from .schema import AttackTaxonomy

MODEL_MAGIC = "idpskit-model-v1"
QMODEL_MAGIC = "idpskit-qmodel-v1"


@dataclass
class ModelBundle:
    """A trained network with the preprocessing state it was fit against."""

    network: Network
    scaler: RangeScaler
    taxonomy: AttackTaxonomy
    seed: int


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def open_atomic(path):
    """A text handle on a temp file in the target directory, renamed to
    path when the block ends and removed if it raises.

    The file gets the mode open() would give it (0o666 less the umask):
    mkstemp creates it 0o600 and the rename keeps that.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path, text) -> None:
    """Write text via a temp file in the target directory, then rename.

    text is a str, or an iterable of str pieces written one after another.
    """
    with open_atomic(path) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _floats(values):
    return " ".join(repr(float(v)) for v in values)


def format_model(bundle: ModelBundle) -> str:
    net = bundle.network
    lines = [MODEL_MAGIC]
    lines.append("layout " + " ".join(str(s) for s in net.layout.sizes))
    lines.append("hidden_activation tanh")
    lines.append("output_activation softmax")
    lines.append(f"seed {bundle.seed}")
    lines.append("scaler_min " + _floats(bundle.scaler.min_))
    lines.append("scaler_max " + _floats(bundle.scaler.max_))
    taxo = sorted(bundle.taxonomy.class_of.items())
    lines.append(f"taxonomy {len(taxo)}")
    for name, cid in taxo:
        lines.append(f"{name} {cid}")
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {l} {W.shape[0]} {W.shape[1]}")
        for row in W:
            lines.append("w " + _floats(row))
        lines.append("b " + _floats(b))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Cursor:
    """A model file's lines after its version guard, read in order."""

    def __init__(self, text: str, magic: str):
        self.lines = text.splitlines()
        if not self.lines or self.lines[0] != magic:
            raise ModelFormatError(
                f"not a {magic} file (header {self.lines[0][:40]!r})" if self.lines
                else "empty model file"
            )
        self.pos = 1

    def take(self, prefix: str) -> str:
        """The next line, less prefix, which it must start with."""
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"unexpected end of file, wanted {prefix!r}")
        line = self.lines[self.pos]
        self.pos += 1
        if not line.startswith(prefix):
            raise ModelFormatError(f"expected {prefix!r}, got {line[:40]!r}")
        return line[len(prefix):].strip()

    def numbers(self, prefix: str, n, kind, what: str, fmt=None) -> list:
        """The next line's n values (any count if n is None) as int or finite float.

        Given a FixedFormat, every value must also fit its word range.
        """
        parts = self.take(prefix).split()
        if n is not None and len(parts) != n:
            raise ModelFormatError(f"{what}: expected {n} values, got {len(parts)}")
        try:
            values = [kind(p) for p in parts]
        except ValueError:
            raise ModelFormatError(f"{what}: bad {kind.__name__} value") from None
        if kind is float and not all(map(math.isfinite, values)):
            raise ModelFormatError(f"{what}: non-finite value")
        if fmt is not None and not all(fmt.min_int <= v <= fmt.max_int for v in values):
            raise ModelFormatError(f"{what}: value outside the {fmt} word range "
                                   f"[{fmt.min_int}, {fmt.max_int}]")
        return values


def _layout(cursor: _Cursor) -> tuple:
    sizes = tuple(cursor.numbers("layout", None, int, "layout"))
    if len(sizes) < 3 or min(sizes) < 1:
        raise ModelFormatError("layout needs positive input, hidden and output sizes")
    return sizes


def _layers(cursor: _Cursor, sizes: tuple, kind, fmt=None) -> tuple:
    """Each layer's weight rows and bias as lists of kind, then the end marker.

    Every layer header must match the layout: index, fan-out, fan-in.
    Given a FixedFormat, every value must fit its word range.
    """
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        head = cursor.take("layer")
        if head.split() != [str(l), str(fan_out), str(fan_in)]:
            raise ModelFormatError(
                f"layer {l}: header {head!r} does not match the layout")
        weights.append([cursor.numbers("w", fan_in, kind, f"layer {l} row {r}", fmt)
                        for r in range(fan_out)])
        biases.append(cursor.numbers("b", fan_out, kind, f"layer {l} bias", fmt))
    if cursor.take("end"):
        raise ModelFormatError("trailing content after end marker")
    return weights, biases


def parse_model(text: str) -> ModelBundle:
    cursor = _Cursor(text, MODEL_MAGIC)
    sizes = _layout(cursor)
    if cursor.take("hidden_activation") != "tanh":
        raise ModelFormatError("unsupported hidden activation")
    if cursor.take("output_activation") != "softmax":
        raise ModelFormatError("unsupported output activation")
    seed = cursor.numbers("seed", 1, int, "seed")[0]
    scaler = RangeScaler()
    scaler.min_ = np.array(cursor.numbers("scaler_min", sizes[0], float, "scaler_min"))
    scaler.max_ = np.array(cursor.numbers("scaler_max", sizes[0], float, "scaler_max"))
    class_of = {}
    for _ in range(cursor.numbers("taxonomy", 1, int, "taxonomy")[0]):
        name, _, cid = cursor.take("").partition(" ")
        if not cid.isdecimal():
            raise ModelFormatError(f"bad taxonomy entry {name!r}")
        class_of[name] = int(cid)
    weights, biases = _layers(cursor, sizes, float)
    net = Network(weights=[np.array(W) for W in weights],
                  biases=[np.array(b) for b in biases],
                  layout=NetworkLayout(sizes[0], sizes[1:-1], sizes[-1]))
    return ModelBundle(network=net, scaler=scaler,
                       taxonomy=AttackTaxonomy(class_of), seed=seed)


def save_model(bundle: ModelBundle, path) -> None:
    write_atomic(path, format_model(bundle))


def load_model(path) -> ModelBundle:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def format_qmodel(qnet: QNetwork) -> str:
    lines = [QMODEL_MAGIC]
    lines.append(f"format {qnet.format.total_bits} {qnet.format.frac_bits}")
    lines.append(f"source_checksum {qnet.source_checksum or '-'}")
    lines.append("layout " + " ".join(str(s) for s in qnet.layer_sizes))
    lines.append(f"lut {len(qnet.tanh_lut)}")
    lines.append(" ".join(str(v) for v in qnet.tanh_lut))
    for l, (rows, bias) in enumerate(zip(qnet.weights, qnet.biases)):
        lines.append(f"layer {l} {len(rows)} {len(rows[0])}")
        for row in rows:
            lines.append("w " + " ".join(str(v) for v in row))
        lines.append("b " + " ".join(str(v) for v in bias))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_qmodel(text: str) -> QNetwork:
    cursor = _Cursor(text, QMODEL_MAGIC)
    total_bits, frac_bits = cursor.numbers("format", 2, int, "format")
    try:
        fmt = FixedFormat(total_bits=total_bits, frac_bits=frac_bits)
    except ValueError as exc:
        raise ModelFormatError(f"format: {exc}") from None
    if frac_bits < MIN_FRAC_BITS:
        raise ModelFormatError(f"format {fmt} has fewer than {MIN_FRAC_BITS} "
                               "fractional bits, which LUT interpolation needs")
    checksum = cursor.take("source_checksum")
    sizes = _layout(cursor)
    if cursor.numbers("lut", 1, int, "lut size") != [LUT_SIZE]:
        raise ModelFormatError(f"the tanh LUT must have {LUT_SIZE} entries")
    lut = cursor.numbers("", LUT_SIZE, int, "lut", fmt)
    weights, biases = _layers(cursor, sizes, int, fmt)
    return QNetwork(weights=weights, biases=biases, tanh_lut=lut, format=fmt,
                    layer_sizes=sizes,
                    source_checksum="" if checksum == "-" else checksum)


def save_qmodel(qnet: QNetwork, path) -> None:
    write_atomic(path, format_qmodel(qnet))


def load_qmodel(path) -> QNetwork:
    with open(path, encoding="utf-8") as fh:
        return parse_qmodel(fh.read())


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
