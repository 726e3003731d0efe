import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teride.errors import ConfigError, EmptyValue, IncompleteTuple
from teride.model import (
    MISSING_CELL,
    QueryConfig,
    Repository,
    read_repository,
    read_tuples,
    tokenize,
    write_tuples,
)

from .conftest import make_tuple, ts


class TestTokenize:
    def test_lowercase_split_dedupe(self):
        assert tokenize("Weight Loss, weight-gain") == {"weight", "loss", "gain"}

    def test_numbers_kept(self):
        assert tokenize("type 2 diabetes") == {"type", "2", "diabetes"}

    def test_empty_raises(self):
        with pytest.raises(EmptyValue):
            tokenize("  ,;  ")

    @given(st.text())
    def test_never_returns_empty_without_raising(self, raw):
        try:
            tokens = tokenize(raw)
        except EmptyValue:
            return
        assert tokens and all(t for t in tokens)


class TestStreamTuple:
    def test_missing_attrs_and_completeness(self):
        r = make_tuple("r1", 0, 1, ts("a"), None, ts("c"))
        assert not r.is_complete()
        assert r.missing == (1,)
        with pytest.raises(IncompleteTuple):
            r.require_complete()

    def test_empty_present_value_rejected(self):
        with pytest.raises(EmptyValue):
            make_tuple("r1", 0, 1, frozenset())

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            make_tuple("r1", 0, -1, ts("a"))


class TestRepository:
    def test_domains_and_top_values(self, numeric_repo):
        assert numeric_repo.d == 3
        assert numeric_repo.domain(0) == [ts("a1"), ts("a2")]
        assert set(numeric_repo.domain(2)) == {ts("0.1"), ts("0.2"), ts("0.35"), ts("0.7")}
        assert numeric_repo.top_values(0, 1) == [ts("a1")]
        # the most frequent values, listed in token order
        repo = Repository([make_tuple(f"s{i}", -1, 0, ts(v)) for i, v in enumerate("cccbaad")])
        assert repo.top_values(0, 2) == [ts("a"), ts("c")]
        assert repo.top_values(0, 3) == [ts("a"), ts("b"), ts("c")]

    def test_incomplete_sample_rejected(self):
        with pytest.raises(IncompleteTuple):
            Repository([make_tuple("s", -1, 0, ts("a"), None)])

    def test_empty_repo_rejected(self):
        with pytest.raises(ConfigError):
            Repository([])


class TestQueryConfig:
    def test_gamma_is_rho_times_d(self):
        cfg = QueryConfig(keywords=frozenset({"k"}), d=4, rho=0.7, alpha=0.1, window_size=10)
        assert cfg.gamma == pytest.approx(2.8)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(rho=0.0),
            dict(rho=1.0),
            dict(alpha=1.0),
            dict(alpha=-0.1),
            dict(window_size=0),
            # a size that is not an int would never equal a window's length
            dict(window_size=2.5),
            dict(window_size=3.0),
            dict(window_size="3"),
            dict(window_size=True),
            dict(keywords=frozenset()),
        ],
    )
    def test_validation(self, kw):
        base = dict(keywords=frozenset({"k"}), d=3, rho=0.5, alpha=0.2, window_size=5)
        base.update(kw)
        with pytest.raises(ConfigError):
            QueryConfig(**base)


# values of tokens that do and do not read back: upper case, punctuation, blanks, ""
_cells = st.none() | st.frozensets(st.text("aZ0.- _", max_size=3), min_size=1, max_size=3)


class TestCsv:
    def test_roundtrip_preserves_missing(self, tmp_path):
        rows = [
            make_tuple("r1", 0, 1, ts("alpha", "beta"), None),
            make_tuple("r2", 1, 2, ts("gamma"), ts("delta")),
        ]
        path = tmp_path / "s.csv"
        write_tuples(path, rows, 2)
        assert MISSING_CELL in path.read_text()
        back = read_tuples(path)
        assert back == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ConfigError):
            read_tuples(path)

    def test_bad_row_error_names_the_line_it_ends_on(self, tmp_path):
        # the first row's quoted cell spans two lines, so the bad row is on line 4
        path = tmp_path / "s.csv"
        path.write_text('rid,stream_id,arrival_time,attr_1\nr1,0,1,"a\nb"\nr2,x,2,c\n')
        with pytest.raises(ConfigError) as exc:
            read_tuples(path)
        assert str(exc.value).startswith(f"{path}:4: ")

    def test_read_repository_requires_complete(self, tmp_path, numeric_repo):
        # cells in tokenizer form, which read back as written ("0.2" would not)
        rows = [
            make_tuple(s.rid, -1, 0, *(tokenize(" ".join(v)) for v in s.attrs))
            for s in numeric_repo.samples
        ]
        path = tmp_path / "r.csv"
        write_tuples(path, rows, 3)
        repo = read_repository(path)
        assert repo.samples == rows

    @pytest.mark.parametrize(
        "value", [ts("0.25"), ts("Big"), ts("a b"), ts("ok", "a-b"), ts(""), ts("__MISSING__")]
    )
    def test_write_rejects_a_value_that_reads_back_as_another(self, tmp_path, value):
        rows = [make_tuple("r1", 0, 1, ts("a"), ts("b")), make_tuple("r2", 0, 2, ts("c"), value)]
        path = tmp_path / "s.csv"
        with pytest.raises(ConfigError) as exc:
            write_tuples(path, rows, 2)
        assert str(exc.value).startswith("tuple r2: attr_2 ")
        assert not path.exists()

    @given(st.lists(st.lists(_cells, min_size=2, max_size=2), min_size=1, max_size=3))
    def test_written_cells_read_back_or_nothing_is_written(self, values):
        rows = [make_tuple(f"r{i}", 0, i, *attrs) for i, attrs in enumerate(values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            try:
                write_tuples(path, rows, 2)
            except ConfigError:
                assert not path.exists()
                return
            assert read_tuples(path) == rows
