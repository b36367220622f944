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
from idpskit.ingest import (
    RawRecord,
    encode_record,
    format_record,
    load_dataset,
    map_attack,
    parse_record,
)
from idpskit.schema import default_schema, default_taxonomy
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
