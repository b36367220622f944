import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit.exceptions import (
    EmptyDatasetError,
    EmptyLabelError,
    FieldCountError,
    NumericParseError,
    UnknownSymbolError,
)
from idpskit.exceptions import IdpsError
from idpskit.ingest import (
    CHUNK,
    RawRecord,
    encode_record,
    encode_records,
    format_record,
    iter_lines,
    load_dataset,
    map_attack,
    parse_record,
    split_fields,
)
from idpskit.schema import CONTINUOUS, default_schema, default_taxonomy
from conftest import find_kdd99_file, require_kdd99_file

# first record of the public kddcup 10% data file
FIRST_RECORD = (
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,"
    "0.00,0.00,0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,"
    "0.00,0.00,0.00,normal."
)


class TestParseRecord:
    def test_first_public_record(self):
        rec = parse_record(FIRST_RECORD)
        assert len(rec.features) == 41
        assert rec.features[0] == "0"
        assert rec.features[1] == "tcp"
        assert rec.features[2] == "http"
        assert rec.label == "normal"

    def test_smurf_record(self):
        line = ",".join(["0", "icmp", "ecr_i", "SF", "1032", "0"] + ["0"] * 35)
        rec = parse_record(line + ",smurf.")
        assert rec.label == "smurf"
        assert rec.features[1] == "icmp"

    def test_field_count_too_few(self):
        with pytest.raises(FieldCountError):
            parse_record(",".join(["0"] * 40) + ",normal.")

    def test_field_count_too_many(self):
        with pytest.raises(FieldCountError):
            parse_record(",".join(["0"] * 42) + ",normal.")

    def test_empty_label(self):
        with pytest.raises(EmptyLabelError):
            parse_record(",".join(["0"] * 41) + ",.")

    def test_whitespace_trimmed(self):
        line = " 0 , tcp ," + ",".join(["0"] * 39) + ", normal. "
        rec = parse_record(line)
        assert rec.features[0] == "0"
        assert rec.features[1] == "tcp"
        assert rec.label == "normal"

    @given(
        fields=st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters=",\n\r",
                    blacklist_categories=("Cs", "Zs", "Cc"),
                ),
                min_size=1, max_size=8,
            ),
            min_size=41, max_size=41,
        ),
        label=st.text(
            alphabet=st.characters(
                blacklist_characters=",.\n\r",
                blacklist_categories=("Cs", "Zs", "Cc"),
            ),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=100)
    def test_parse_format_round_trip(self, fields, label):
        rec = RawRecord(features=fields, label=label)
        line = format_record(rec)
        back = parse_record(line)
        assert back == rec
        assert format_record(back) == line


# every character str.strip removes that a field might be padded with,
# including the separators \x1c-\x1f and the no-break and ideographic spaces
PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000"


class TestSplitFields:
    @given(fields=st.lists(st.tuples(
        st.text(alphabet=PADDING, max_size=2),
        st.text(alphabet=st.characters(blacklist_characters=",",
                                       blacklist_categories=("Cs",)),
                max_size=4),
        st.text(alphabet=PADDING, max_size=2)), min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_matches_stripping_every_field(self, fields):
        line = ",".join("".join(parts) for parts in fields)
        assert split_fields(line) == [f.strip() for f in line.split(",")]

    @pytest.mark.parametrize("line", ["a,b", " a,b", "a,b ", "a, b", "a,\u3000b",
                                      "\x1ca,b", "a,b\xa0", ""])
    def test_edges(self, line):
        assert split_fields(line) == [f.strip() for f in line.split(",")]


class TestMapAttack:
    TABLE = {
        1: ["back", "land", "neptune", "pod", "smurf", "teardrop"],
        2: ["ipsweep", "nmap", "portsweep", "satan"],
        3: ["ftp_write", "guess_passwd", "imap", "multihop", "phf",
            "spy", "warezclient", "warezmaster"],
        4: ["buffer_overflow", "loadmodule", "perl", "rootkit"],
        5: ["named", "xlock"],
    }

    def test_canonical_classes(self):
        taxonomy = default_taxonomy()
        assert map_attack("smurf", taxonomy) == 1
        assert map_attack("normal", taxonomy) == 0
        assert map_attack("zzz_unknown", taxonomy) == 5

    @pytest.mark.parametrize(
        "name,expected",
        [(name, cid) for cid, names in TABLE.items() for name in names],
    )
    def test_table_coverage(self, name, expected):
        assert map_attack(name, default_taxonomy()) == expected

    def test_normalization(self):
        taxonomy = default_taxonomy()
        assert map_attack("SMURF", taxonomy) == 1
        assert map_attack("  neptune ", taxonomy) == 1

    def test_total_and_stable(self):
        taxonomy = default_taxonomy()
        for name in ["smurf", "nosuch", "", "portsweep"]:
            if not name:
                continue
            first = map_attack(name, taxonomy)
            assert all(map_attack(name, taxonomy) == first for _ in range(3))
            assert 0 <= first <= 5


class TestEncodeRecord:
    def test_protocol_codes(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        line = "0,udp," + ",".join(["x", "y"] + ["0"] * 37) + ",normal."
        vec, cid = encode_record(parse_record(line), schema, taxonomy)
        assert vec[1] == 1.0
        assert cid == 0

    def test_zero_fields_stay_zero(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        rec = parse_record(FIRST_RECORD)
        vec, _ = encode_record(rec, schema, taxonomy)
        assert vec[0] == 0.0
        assert vec[4] == 181.0
        assert vec[5] == 5450.0
        assert len(vec) == 41

    def test_permissive_assigns_first_code(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        assert schema.descriptors[2].code_map == {}
        rec = parse_record(FIRST_RECORD)
        vec, _ = encode_record(rec, schema, taxonomy)
        assert vec[2] == 0.0  # http got the first free service code
        assert schema.descriptors[2].code_map["http"] == 0

    def test_strict_unknown_symbol(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        rec = parse_record(FIRST_RECORD)
        with pytest.raises(UnknownSymbolError):
            encode_record(rec, schema, taxonomy, strict=True)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value(self, value):
        schema, taxonomy = default_schema(), default_taxonomy()
        line = "0,tcp,http,SF," + ",".join([value] + ["0"] * 36) + ",normal."
        with pytest.raises(NumericParseError, match="src_bytes"):
            encode_record(parse_record(line), schema, taxonomy)

    def test_finite_values_that_overflow_a_sum_pass(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        line = "0,tcp,http,SF," + ",".join(["1.7e308"] * 2 + ["0"] * 35) + ",normal."
        vec, _ = encode_record(parse_record(line), schema, taxonomy)
        assert vec[4] == vec[5] == 1.7e308

    def test_numeric_parse_error(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        line = "abc,tcp," + ",".join(["a", "b"] + ["0"] * 37) + ",normal."
        with pytest.raises(NumericParseError):
            encode_record(parse_record(line), schema, taxonomy)

    def test_deterministic_given_fixed_schema(self):
        schema, taxonomy = default_schema(), default_taxonomy()
        rec = parse_record(FIRST_RECORD)
        first, _ = encode_record(rec, schema, taxonomy)
        second, _ = encode_record(rec, schema, taxonomy)
        np.testing.assert_array_equal(first, second)


# continuous field texts: good, odd but good, and each kind of fault
NUMBERS = ("0", "1.5", "181", "-0", "-0.0", "+.5", "1_0", "\uff11\uff12",
           "5e-324", "1e308", "1.7e308", "1e-400", "1e400", "-1e400", "nan",
           "inf", "Infinity", "1x", "", "0x10", "1__0", "1d5", "1 5")
# symbolic field texts per field: known to the default schema or not
SYMBOLS = {1: ("tcp", "udp", "icmp", "xtp", "tc\udcff"),
           2: ("http", "private", "svc_a", "svc_b"),
           3: ("SF", "S0", "REJ", "flag_z")}
LABELS = ("normal.", "smurf.", "SATAN", " perl ", "zzz_unknown")


@st.composite
def record_chunks(draw):
    """1 to CHUNK record lines with padded fields and drawn faults.

    Most values are clean so that clean chunks, chunks with one bad row and
    lines with two or more faults all occur.
    """
    lines = []
    for _ in range(draw(st.integers(1, CHUNK))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        clean = rng.random() < 0.7
        fields = []
        for i, d in enumerate(default_schema().descriptors):
            if d.kind == CONTINUOUS:
                pool = NUMBERS[:3] if clean or rng.random() < 0.8 else NUMBERS
            else:
                pool = SYMBOLS[i][:2] if clean else SYMBOLS[i]
            text = str(rng.choice(pool))
            if rng.random() < 0.05:
                text = (str(rng.choice(list(PADDING))) + text
                        + str(rng.choice(list(PADDING))))
            fields.append(text)
        lines.append(",".join(fields + [str(rng.choice(LABELS))]))
    return lines


def record_by_record(raws, schema, taxonomy, strict):
    """Reference for encode_records: encode_record on each record in turn.

    Returns the outcome per record, as bytes so -0.0 and 0.0 differ, and
    the positions whose symbols the code maps lacked at their turn.
    """
    outcomes, unknown = [], []
    symbolic = [(i, d.code_map) for i, d in enumerate(schema.descriptors)
                if d.kind != CONTINUOUS]
    for pos, raw in enumerate(raws):
        if any(raw.features[i] not in m for i, m in symbolic):
            unknown.append(pos)
        try:
            vec, cid = encode_record(raw, schema, taxonomy, strict=strict)
        except IdpsError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((vec.tobytes(), cid))
    return outcomes, unknown


def chunk_outcomes(raws, X, y, failures):
    failed = dict(failures)
    rows = iter(zip(X, y.tolist()))
    out = []
    for pos in range(len(raws)):
        if pos in failed:
            out.append((type(failed[pos]), str(failed[pos])))
        else:
            vec, cid = next(rows)
            out.append((vec.tobytes(), cid))
    assert next(rows, None) is None
    return out


class TestEncodeRecords:
    @given(lines=record_chunks(), strict=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_encode_record_row_by_row(self, lines, strict):
        raws = [parse_record(line) for line in lines]
        taxonomy = default_taxonomy()
        ref_schema, schema = default_schema(), default_schema()
        expected, unknown = record_by_record(raws, ref_schema, taxonomy,
                                             strict)
        position = {id(raw): pos for pos, raw in enumerate(raws)}
        calls = []

        def encode(raw, *args, **kwargs):
            calls.append(position[id(raw)])
            return encode_record(raw, *args, **kwargs)

        X, y, failures = encode_records(raws, schema, taxonomy,
                                        strict=strict, encode=encode)
        assert X.dtype == np.float64 and X.shape[1] == 41
        assert y.dtype == np.int64
        assert chunk_outcomes(raws, X, y, failures) == expected
        # new symbols are numbered as record-by-record encoding numbers them
        assert [d.code_map for d in schema.descriptors] == \
            [d.code_map for d in ref_schema.descriptors]
        # only records that fail or carry a new symbol take the per-record
        # path, each once: a chunk with one bad line is not encoded row by row
        failing = [pos for pos, o in enumerate(expected) if isinstance(o[0], type)]
        assert sorted(calls) == sorted(set(failing) | set(unknown))

    def test_first_fault_in_field_order_wins(self):
        # duration (field 0) comes before protocol_type (field 1)
        both = parse_record(",".join(["1x", "xtp", "http", "SF"] + ["0"] * 37)
                            + ",normal.")
        symbol_first = parse_record(",".join(["0", "xtp", "http", "SF", "1x"]
                                             + ["0"] * 36) + ",normal.")
        _, _, failures = encode_records([both, symbol_first], default_schema(),
                                        default_taxonomy(), strict=True)
        assert [(pos, type(exc)) for pos, exc in failures] == [
            (0, NumericParseError), (1, UnknownSymbolError)]
        assert "duration" in str(failures[0][1])

    def test_failures_leave_no_reference_cycles(self):
        # a kept traceback reaches the encoder's frame, which holds the
        # failures: the chunk would then live until the cyclic gc ran
        good = ",".join(["0", "tcp", "http", "SF"] + ["0"] * 37) + ",normal."
        raws = [parse_record(line) for line in (
            good, good.replace("0,tcp", "1x,tcp", 1),
            good.replace("tcp", "xtp", 1), good.replace(",0,0,", ",nan,0,", 1))]
        schema = default_schema()
        schema.descriptors[2].code_map["http"] = 0
        schema.descriptors[3].code_map["SF"] = 0
        gc.collect()
        gc.disable()
        try:
            _, _, failures = encode_records(raws, schema, default_taxonomy(),
                                            strict=True)
            assert len(failures) == 3
            del failures
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_negative_zero_keeps_its_sign(self):
        raw = parse_record(",".join(["-0", "tcp", "http", "SF"] + ["0"] * 37)
                           + ",normal.")
        X, _, _ = encode_records([raw], default_schema(), default_taxonomy())
        assert np.signbit(X[0, 0]) and not np.signbit(X[0, 4])


class TestIterLines:
    def _write(self, path):
        path.write_bytes(b"a,b\n\nc,\xffd\n e \n")

    def test_strict_names_the_line_of_an_undecodable_byte(self, tmp_path):
        path = tmp_path / "bad.txt"
        self._write(path)
        with pytest.raises(ValueError, match=r"bad.txt, line 3: 'utf-8' codec "
                           r"can't decode byte 0xff in position 2"):
            list(iter_lines(path))

    def test_surrogateescape_keeps_every_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        self._write(path)
        assert list(iter_lines(path, errors="surrogateescape")) == [
            (1, "a,b"), (3, "c,\udcffd"), (4, "e")]


class TestLoadDataset:
    def _lines(self):
        base = ["0", "tcp", "http", "SF"] + ["0"] * 37
        return [
            ",".join(base) + ",normal.",
            ",".join(["0", "icmp", "ecr_i", "SF"] + ["0"] * 37) + ",smurf.",
            ",".join(["0", "udp", "domain_u", "SF"] + ["0"] * 37) + ",normal.",
        ]

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "three.txt"
        path.write_text("\n".join(self._lines()) + "\n")
        ds = load_dataset(path, default_schema(), default_taxonomy())
        assert len(ds) == 3
        assert list(ds.y) == [0, 1, 0]
        assert ds.class_counts()[0] == 2

    def test_bad_line_names_line_number(self, tmp_path):
        lines = self._lines()
        lines[1] = "garbage"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FieldCountError, match="line 2"):
            load_dataset(path, default_schema(), default_taxonomy())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_dataset(path, default_schema(), default_taxonomy())

    def test_first_bad_line_wins_across_parse_and_encode(self, tmp_path):
        lines = self._lines() * 30
        lines[70] = lines[70].replace(",0,", ",1x,", 1)  # NumericParseError
        lines[71] = "garbage"                             # FieldCountError
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NumericParseError, match="line 71: "):
            load_dataset(path, default_schema(), default_taxonomy())

    def test_undecodable_byte_names_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("\n".join(self._lines()).encode().replace(
            b"domain_u", b"domain_\xff"))
        with pytest.raises(ValueError, match="line 3: 'utf-8' codec"):
            load_dataset(path, default_schema(), default_taxonomy())

    def test_gzip_transparent(self, tmp_path):
        import gzip

        path = tmp_path / "three.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(self._lines()) + "\n")
        ds = load_dataset(path, default_schema(), default_taxonomy())
        assert len(ds) == 3

    def test_public_file_record_count(self):
        path = require_kdd99_file()
        ds = load_dataset(path, default_schema(), default_taxonomy())
        assert len(ds) == 494021


def test_kdd99_discovery_is_consistent():
    # the helper never raises; it returns a path or None
    path = find_kdd99_file()
    assert path is None or isinstance(path, str)
