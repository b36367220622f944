"""Versioned text serialization for trained and quantized models.

Both formats are line-oriented, self-describing, and written with
shortest-round-trip decimal floats so a reload is bit-exact and two runs
with the same inputs produce byte-identical files. The first line is a
format-version guard.
"""

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelFormatError
from .fixedpoint import FixedFormat, QNetwork
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


def write_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The file gets the mode open() would give it (0o666 less the umask):
    mkstemp creates it 0o600 and the rename keeps that.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _floats(values):
    return " ".join(repr(float(v)) for v in values)


def _parse_floats(line, n, what):
    parts = line.split()
    if len(parts) != n:
        raise ModelFormatError(f"{what}: expected {n} values, got {len(parts)}")
    return np.array([float(p) for p in parts], dtype=np.float64)


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


def parse_model(text: str) -> ModelBundle:
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(
            f"not a {MODEL_MAGIC} file (header {lines[0][:40]!r})" if lines
            else "empty model file"
        )
    pos = 1

    def next_line(prefix):
        nonlocal pos
        if pos >= len(lines):
            raise ModelFormatError(f"unexpected end of file, wanted {prefix!r}")
        line = lines[pos]
        pos += 1
        if not line.startswith(prefix):
            raise ModelFormatError(f"expected {prefix!r}, got {line[:40]!r}")
        return line[len(prefix):].strip()

    sizes = [int(s) for s in next_line("layout").split()]
    if len(sizes) < 3:
        raise ModelFormatError("layout needs input, hidden, output sizes")
    layout = NetworkLayout(sizes[0], tuple(sizes[1:-1]), sizes[-1])
    if next_line("hidden_activation") != "tanh":
        raise ModelFormatError("unsupported hidden activation")
    if next_line("output_activation") != "softmax":
        raise ModelFormatError("unsupported output activation")
    seed = int(next_line("seed"))
    scaler = RangeScaler()
    scaler.min_ = _parse_floats(next_line("scaler_min"), sizes[0], "scaler_min")
    scaler.max_ = _parse_floats(next_line("scaler_max"), sizes[0], "scaler_max")
    n_taxo = int(next_line("taxonomy"))
    class_of = {}
    for _ in range(n_taxo):
        if pos >= len(lines):
            raise ModelFormatError("truncated taxonomy block")
        name, _, cid = lines[pos].partition(" ")
        pos += 1
        class_of[name] = int(cid)
    taxonomy = AttackTaxonomy(class_of)
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        head = next_line("layer").split()
        if len(head) != 3 or int(head[0]) != l:
            raise ModelFormatError(f"bad layer header at layer {l}")
        fan_out, fan_in = int(head[1]), int(head[2])
        W = np.empty((fan_out, fan_in))
        for r in range(fan_out):
            W[r] = _parse_floats(next_line("w"), fan_in, f"layer {l} row {r}")
        b = _parse_floats(next_line("b"), fan_out, f"layer {l} bias")
        weights.append(W)
        biases.append(b)
    if next_line("end") != "":
        raise ModelFormatError("trailing content after end marker")
    net = Network(weights=weights, biases=biases, layout=layout)
    return ModelBundle(network=net, scaler=scaler, taxonomy=taxonomy, seed=seed)


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
    lines = text.splitlines()
    if not lines or lines[0] != QMODEL_MAGIC:
        raise ModelFormatError(f"not a {QMODEL_MAGIC} file")
    pos = 1

    def next_line(prefix):
        nonlocal pos
        if pos >= len(lines):
            raise ModelFormatError(f"unexpected end of file, wanted {prefix!r}")
        line = lines[pos]
        pos += 1
        if not line.startswith(prefix):
            raise ModelFormatError(f"expected {prefix!r}, got {line[:40]!r}")
        return line[len(prefix):].strip()

    total_bits, frac_bits = (int(v) for v in next_line("format").split())
    fmt = FixedFormat(total_bits=total_bits, frac_bits=frac_bits)
    checksum = next_line("source_checksum")
    checksum = "" if checksum == "-" else checksum
    sizes = tuple(int(s) for s in next_line("layout").split())
    n_lut = int(next_line("lut"))
    if pos >= len(lines):
        raise ModelFormatError("missing LUT data")
    lut = [int(v) for v in lines[pos].split()]
    pos += 1
    if len(lut) != n_lut:
        raise ModelFormatError(f"LUT has {len(lut)} entries, header says {n_lut}")
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        head = next_line("layer").split()
        fan_out, fan_in = int(head[1]), int(head[2])
        rows = []
        for _ in range(fan_out):
            row = [int(v) for v in next_line("w").split()]
            if len(row) != fan_in:
                raise ModelFormatError(f"layer {l}: bad row width")
            rows.append(row)
        bias = [int(v) for v in next_line("b").split()]
        weights.append(rows)
        biases.append(bias)
    next_line("end")
    return QNetwork(weights=weights, biases=biases, tanh_lut=lut, format=fmt,
                    layer_sizes=sizes, source_checksum=checksum)


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
