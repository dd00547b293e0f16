"""Bundled reference tables: loading, comparison semantics, reproduction."""

import json
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import LaurentPoly, parse_laurent

from toric_virasoro import golden
from toric_virasoro.exactalg import parse_character

ALL_IDS = golden.list_cases()

EXPECTED_K_STATUS = {
    # The printed rows for this case describe sheaves with invariants other
    # than the case's own (and the locus at its polarization differs), so the
    # comparison is recorded as unreliable and skipped.
    "f0-F-c2-1": "skipped",
    # Four rows in this table have one dropped minus sign in a single chart;
    # they are matched by absolute coefficient values instead and flagged.
    "f0-F-c2-2-H3F5Z": "match-with-recorded-sign-slips",
}


class TestFixtureFiles:
    def test_sixteen_cases(self):
        assert len(ALL_IDS) == 16
        assert ALL_IDS == sorted(ALL_IDS)

    def test_unknown_case_raises(self):
        with pytest.raises(KeyError):
            golden.load_case("p2-r9-c2-99")

    def test_an_id_outside_the_bundled_list_is_refused(self):
        # the path below names a bundled file, but the id is no bundled case
        with pytest.raises(KeyError, match="no recorded case named '../golden/p2-r2-c2-3'"):
            golden.load_case("../golden/p2-r2-c2-3")

    def test_chart_strings_roundtrip(self):
        for case_id in ALL_IDS:
            gold = golden.load_case(case_id)
            for row in gold.k_rows:
                for chart in row.charts:
                    assert all(type(c) is int and c for c in chart.values())
                    assert oracles.character(parse_laurent(LaurentPoly(chart).render())) == chart

    def test_chart_texts_parse_as_the_oracle_reads_them(self):
        files = [golden._data_dir().joinpath(case_id + ".json") for case_id in ALL_IDS]
        texts = [
            chart
            for path in files
            for row in json.loads(path.read_text())["k_rows"]
            for chart in row["charts"]
        ]
        assert len(texts) == 430
        for text in texts:
            assert parse_character(text) == oracles.character(parse_laurent(text)), text

    @pytest.mark.parametrize(
        "chart,message",
        [
            ("1/2*s + t", "case 'bad': the chart '1/2*s + t' has a non-integral coefficient"),
            ("3/2*s", "case 'bad': the chart '3/2*s' has a non-integral coefficient"),
            ("s^x", "case 'bad': cannot parse monomial 's^x' in 's^x'"),
        ],
        ids=["fraction-in-a-sum", "fraction", "unparsable"],
    )
    def test_a_malformed_recorded_chart_is_refused(self, tmp_path, monkeypatch, chart, message):
        raw = json.loads(golden._data_dir().joinpath("p2-r2-c2-1.json").read_text())
        raw["k_rows"][0]["charts"][1] = chart
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        monkeypatch.setattr(golden, "_data_dir", lambda: tmp_path)
        with pytest.raises(ValueError) as refusal:
            golden.load_case("bad")
        assert str(refusal.value) == message

    def test_sign_slips_only_where_recorded(self):
        flagged = {
            case_id: [i for i, row in enumerate(golden.load_case(case_id).k_rows) if row.sign_corrupt]
            for case_id in ALL_IDS
        }
        flagged = {k: v for k, v in flagged.items() if v}
        assert flagged == {"f0-F-c2-2-H3F5Z": [2, 3, 10, 11]}

    def test_unreliable_rows_only_where_recorded(self):
        unreliable = [cid for cid in ALL_IDS if not golden.load_case(cid).k_rows_reliable]
        assert unreliable == ["f0-F-c2-1"]


class TestRecordedIntegrals:
    def test_triples_sum_to_zero(self):
        count = 0
        for case_id in ALL_IDS:
            gold = golden.load_case(case_id)
            for row in gold.integrals:
                assert row.r_value + row.t_value + row.s_value == 0, (case_id, row.label)
                count += 1
        assert count > 100

    def test_typo_row_keeps_both_values(self):
        gold = golden.load_case("p2-r4-c2-3")
        typo_rows = [r for r in gold.integrals if r.typo_suspected]
        assert len(typo_rows) == 1
        (row,) = typo_rows
        assert row.r_value == Fraction(-29715, 16384)
        assert ("R", "-29715/16348") in row.printed
        assert all(Fraction(val) != row.r_value for _part, val in row.printed)

    def test_every_other_row_prints_what_it_stores(self):
        for case_id in ALL_IDS:
            for row in golden.load_case(case_id).integrals:
                if not row.typo_suspected:
                    assert not row.printed


def _characters(*texts):
    return [oracles.character(parse_laurent(t)) for t in texts]


def _twist(chart, da, db):
    return {(a + da, b + db): c for (a, b), c in chart.items()}


# an integer restriction row: a nonempty first chart, no zero coefficients
_charts = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-3, 3).filter(bool), max_size=5
)
_rows = st.tuples(_charts.filter(bool), st.lists(_charts, max_size=3)).map(
    lambda row: [row[0], *row[1]]
)


class TestRowKey:
    def test_twist_invariance(self):
        charts = _characters("st + s + t", "1 + s^-1t", "t + 2")
        shifted = [_twist(c, 3, -2) for c in charts]
        assert golden.canonical_row_key(charts) == golden.canonical_row_key(shifted)

    def test_distinct_rows_distinct_keys(self):
        a = _characters("s + t", "1 + s")
        b = _characters("s + t", "1 + t")
        assert golden.canonical_row_key(a) != golden.canonical_row_key(b)

    @settings(deadline=None, max_examples=200)
    @given(_rows, st.integers(-4, 4), st.integers(-4, 4))
    def test_key_of_integer_rows_is_the_laurent_oracle_key(self, row, da, db):
        # the same repr as the key of the same rows as LaurentPoly values,
        # which the benchmark's reference digests were made from
        key = golden.canonical_row_key(row)
        assert repr(key) == repr(oracles.canonical_row_key([LaurentPoly(c) for c in row]))
        assert golden.canonical_row_key([_twist(c, da, db) for c in row]) == key

    def test_key_repr_is_pinned_and_equal_coefficients_are_one_object(self):
        # the benchmark's reference digests hash this repr, so it must not
        # change; equal coefficients are interned, so sorting keys compares
        # them by identity
        texts = ("s*t + 2*s - 3/2*t", "1 - s^-1*t")
        key = golden.canonical_row_key([parse_laurent(t).coeffs for t in texts])
        assert repr(key) == (
            "(((0, 0, Fraction(-3, 2)), (1, -1, Fraction(2, 1)), (1, 0, Fraction(1, 1))),"
            " ((-1, 0, Fraction(-1, 1)), (0, -1, Fraction(1, 1))))"
        )
        again = golden.canonical_row_key([parse_laurent(t).coeffs for t in texts])
        assert again == key
        assert all(x[2] is y[2] for cx, cy in zip(key, again) for x, y in zip(cx, cy))
        assert key[0][2][2] is key[1][1][2]  # the 1 of both charts
        # an integer coefficient is interned as the Fraction of the same value
        (((_a, _b, one),),) = golden.canonical_row_key([{(5, 5): 1}])
        assert one is key[0][2][2] and repr(one) == "Fraction(1, 1)"


class TestReproduction:
    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_engine_reproduces_case(self, case_of, case_id):
        gold, case, _ = case_of(case_id)
        report = golden.verify_case(gold, case=case)
        assert report.dim_ok
        assert report.k_status == EXPECTED_K_STATUS.get(case_id, "match"), report.k_messages
        assert not report.integral_failures, report.integral_failures
        assert report.ok, report
