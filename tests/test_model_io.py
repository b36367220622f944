import os
import stat

import numpy as np
import pytest

from idpskit.exceptions import ModelFormatError
from idpskit.fixedpoint import (
    MIN_FRAC_BITS,
    FixedFormat,
    q_predict_class,
    quantize_network,
)
from idpskit.mlp import NetworkLayout, forward, init_network
from idpskit.model_io import (
    ModelBundle,
    format_model,
    format_qmodel,
    load_model,
    load_qmodel,
    open_atomic,
    parse_model,
    parse_qmodel,
    save_model,
    save_qmodel,
    write_atomic,
)
from idpskit.preprocessing import RangeScaler
from idpskit.schema import default_taxonomy


def make_bundle(seed=1):
    net = init_network(NetworkLayout(41, (7, 5), 6), seed=seed)
    scaler = RangeScaler().fit(np.random.default_rng(seed).uniform(
        -3, 9, size=(20, 41)))
    return ModelBundle(network=net, scaler=scaler,
                       taxonomy=default_taxonomy(), seed=seed)


class TestModelRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        bundle = make_bundle()
        path = tmp_path / "model.txt"
        save_model(bundle, path)
        loaded = load_model(path)
        for wa, wb in zip(bundle.network.weights, loaded.network.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(bundle.network.biases, loaded.network.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(bundle.scaler.min_, loaded.scaler.min_)
        np.testing.assert_array_equal(bundle.scaler.max_, loaded.scaler.max_)
        assert loaded.taxonomy.class_of == bundle.taxonomy.class_of
        assert loaded.seed == bundle.seed

    def test_forward_identical_after_reload(self, tmp_path):
        bundle = make_bundle(seed=2)
        path = tmp_path / "model.txt"
        save_model(bundle, path)
        loaded = load_model(path)
        x = np.random.default_rng(0).uniform(0, 1, 41)
        np.testing.assert_array_equal(forward(bundle.network, x),
                                      forward(loaded.network, x))

    def test_serialization_is_deterministic(self):
        a = format_model(make_bundle(seed=3))
        b = format_model(make_bundle(seed=3))
        assert a == b

    def test_version_guard(self):
        with pytest.raises(ModelFormatError):
            parse_model("idpskit-model-v999\n")
        with pytest.raises(ModelFormatError):
            parse_model("")

    def test_truncation_detected(self):
        text = format_model(make_bundle())
        truncated = "\n".join(text.splitlines()[:10])
        with pytest.raises(ModelFormatError):
            parse_model(truncated)


class TestQModelRoundTrip:
    def test_round_trip(self, tmp_path):
        net = init_network(NetworkLayout(6, (4,), 3), seed=5)
        qnet = quantize_network(net, FixedFormat(16, 12),
                                source_checksum="deadbeef")
        path = tmp_path / "qmodel.txt"
        save_qmodel(qnet, path)
        loaded = load_qmodel(path)
        assert loaded.weights == qnet.weights
        assert loaded.biases == qnet.biases
        assert loaded.tanh_lut == qnet.tanh_lut
        assert loaded.format == qnet.format
        assert loaded.layer_sizes == qnet.layer_sizes
        assert loaded.source_checksum == "deadbeef"

    def test_empty_checksum_round_trips(self):
        net = init_network(NetworkLayout(3, (2,), 2), seed=5)
        qnet = quantize_network(net, FixedFormat(16, 12))
        assert parse_qmodel(format_qmodel(qnet)).source_checksum == ""

    def test_version_guard(self):
        with pytest.raises(ModelFormatError):
            parse_qmodel("not-a-qmodel\n")


def small_texts():
    """Model and qmodel text of one small 4-3-2 network."""
    net = init_network(NetworkLayout(4, (3,), 2), seed=4)
    scaler = RangeScaler().fit(np.random.default_rng(4).uniform(0, 5, (6, 4)))
    bundle = ModelBundle(network=net, scaler=scaler,
                         taxonomy=default_taxonomy(), seed=4)
    return {"model": format_model(bundle),
            "qmodel": format_qmodel(quantize_network(net, FixedFormat(16, 12)))}


TEXTS = small_texts()
PARSE = {"model": parse_model, "qmodel": parse_qmodel}


def edit(text, prefix, new):
    """Replace the first line that starts with prefix by new."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = new
    return "\n".join(lines) + "\n"


class TestModelValidation:
    @pytest.mark.parametrize("kind,k", [
        (kind, k) for kind, text in TEXTS.items()
        for k in range(len(text.splitlines()))
    ])
    def test_every_line_prefix_truncation_is_rejected(self, kind, k):
        lines = TEXTS[kind].splitlines()
        with pytest.raises(ModelFormatError):
            PARSE[kind]("\n".join(lines[:k]) + "\n")

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_untouched_texts_parse(self, kind):
        PARSE[kind](TEXTS[kind])

    @pytest.mark.parametrize("kind,bias", [("model", "b 0.5"), ("qmodel", "b 7")])
    def test_bias_width(self, kind, bias):
        with pytest.raises(ModelFormatError, match="layer 0 bias"):
            PARSE[kind](edit(TEXTS[kind], "b ", bias))

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    @pytest.mark.parametrize("prefix,new", [
        ("layout", "layout 4 5 2"),
        ("layout", "layout 4 3 3 2"),
        ("layer 0", "layer 1 3 4"),
        ("layer 0", "layer 0 3 5"),
        ("layer 1", "layer 1 3 3"),
    ])
    def test_layer_headers_must_match_layout(self, kind, prefix, new):
        with pytest.raises(ModelFormatError, match="header"):
            PARSE[kind](edit(TEXTS[kind], prefix, new))

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    @pytest.mark.parametrize("layout", ["layout", "layout 4 2", "layout 4 0 2",
                                        "layout 4 x 2"])
    def test_bad_layout(self, kind, layout):
        with pytest.raises(ModelFormatError, match="layout"):
            PARSE[kind](edit(TEXTS[kind], "layout", layout))

    @pytest.mark.parametrize("kind,token", [
        ("model", "abc"), ("model", "nan"), ("model", "inf"), ("model", "-inf"),
        ("model", "1e400"), ("qmodel", "abc"), ("qmodel", "1.5"),
        ("qmodel", "nan"),
    ])
    def test_bad_parameter_token(self, kind, token):
        first_w = next(line for line in TEXTS[kind].splitlines()
                       if line.startswith("w "))
        text = edit(TEXTS[kind], "w ", " ".join(["w", token] + first_w.split()[2:]))
        with pytest.raises(ModelFormatError, match="layer 0 row 0"):
            PARSE[kind](text)

    def test_bad_scaler_token(self):
        with pytest.raises(ModelFormatError, match="scaler_max"):
            parse_model(edit(TEXTS["model"], "scaler_max",
                             "scaler_max 1.0 nan 2.0 3.0"))

    def test_lut_must_have_256_entries(self):
        lines = TEXTS["qmodel"].splitlines()
        i = lines.index("lut 256")
        lines[i:i + 2] = ["lut 255", " ".join(lines[i + 1].split()[:255])]
        with pytest.raises(ModelFormatError, match="256"):
            parse_qmodel("\n".join(lines) + "\n")


def set_value(text, prefix, value, nth=0):
    """Set the first value of the nth 'w '/'b ' line, or of the LUT line."""
    lines = text.splitlines()
    if prefix == "lut":
        i, head = lines.index("lut 256") + 1, 0
    else:
        i = [i for i, line in enumerate(lines) if line.startswith(prefix)][nth]
        head = 1
    parts = lines[i].split()
    parts[head] = str(value)
    lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


class TestQModelWordRange:
    """Every stored integer must fit the q4.12 word range [-32768, 32767]."""

    @pytest.mark.parametrize("prefix,nth,value,where", [
        ("w ", 0, 10**30, "layer 0 row 0"),
        ("w ", 0, 40000, "layer 0 row 0"),
        ("w ", 4, -32769, "layer 1 row 1"),
        ("b ", 1, 32768, "layer 1 bias"),
        ("lut", 0, -40000, "lut"),
    ])
    def test_out_of_range_value_rejected(self, prefix, nth, value, where):
        text = set_value(TEXTS["qmodel"], prefix, value, nth)
        with pytest.raises(ModelFormatError, match=f"{where}: value outside"):
            parse_qmodel(text)

    @pytest.mark.parametrize("value", [-32768, 32767])
    def test_boundary_values_load(self, value):
        text = TEXTS["qmodel"]
        for prefix, nth in (("w ", 0), ("w ", 4), ("b ", 1), ("lut", 0)):
            text = set_value(text, prefix, value, nth)
        qnet = parse_qmodel(text)
        assert qnet.weights[0][0][0] == qnet.weights[1][1][0] == value
        assert qnet.biases[1][0] == qnet.tanh_lut[0] == value
        assert q_predict_class(qnet, np.full((2, 4), 0.5)).shape == (2,)

    def test_too_few_fractional_bits_rejected(self):
        with pytest.raises(ModelFormatError, match=f"fewer than {MIN_FRAC_BITS}"):
            parse_qmodel(edit(TEXTS["qmodel"], "format", "format 16 4"))

    def test_minimum_fractional_bits_load(self):
        text = edit(TEXTS["qmodel"], "format", f"format 16 {MIN_FRAC_BITS}")
        qnet = parse_qmodel(text)
        assert qnet.format == FixedFormat(16, MIN_FRAC_BITS)
        assert q_predict_class(qnet, np.full((2, 4), 0.5)).shape == (2,)

    @pytest.mark.parametrize("fmt", ["format 16 16", "format 40 12", "format 16 0"])
    def test_invalid_format_is_a_model_format_error(self, fmt):
        with pytest.raises(ModelFormatError, match="format"):
            parse_qmodel(edit(TEXTS["qmodel"], "format", fmt))


class TestWriteAtomic:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600),
                                            (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_atomic(tmp_path / "artifact.txt", "x\n")
        finally:
            os.umask(old)
        st_mode = os.stat(tmp_path / "artifact.txt").st_mode
        assert stat.S_IMODE(st_mode) == mode
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_error_leaves_neither_file_nor_temp(self, tmp_path):
        with pytest.raises(RuntimeError):
            with open_atomic(tmp_path / "artifact.txt") as fh:
                fh.write("partial\n")
                assert len(os.listdir(tmp_path)) == 1
                raise RuntimeError("stream failed")
        assert os.listdir(tmp_path) == []
