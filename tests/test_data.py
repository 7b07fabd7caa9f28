import csv
import gc
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfstcap.codes import han_capacity_kn
from cfstcap.data import (CSV_HEADER, ENVELOPE, ROW_BLOCK, Dataset, Specimen,
                          SpecimenTable, generate_synthetic, load_csv, numeric_columns,
                          save_csv, split)
from cfstcap.errors import DataError
from cfstcap.features import build_frame


def write(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text)
    return p


HEADER = "D_mm,t_mm,L_mm,fy_MPa,fc_MPa,N_kN,source_id\n"


class TestLoadCsv:
    def test_basic_row(self, tmp_path):
        ds = load_csv(write(tmp_path, HEADER + "100,5,300,300,30,650,labA\n"))
        assert len(ds) == 1
        s = ds.specimens[0]
        assert (s.D, s.t, s.L, s.fy, s.fc, s.N) == (100, 5, 300, 300, 30, 650)
        assert s.source_id == "labA"

    def test_geometry_invariant_rejected(self, tmp_path):
        p = write(tmp_path, HEADER + "100,60,300,300,30,650,bad\n")
        with pytest.raises(DataError, match="row 2.*D=100.0 must exceed"):
            load_csv(p)

    def test_envelope_warn_mode(self, tmp_path):
        p = write(tmp_path, HEADER + "2000,5,3000,300,30,50000,big\n")
        with pytest.warns(UserWarning, match="outside envelope"):
            ds = load_csv(p, range_mode="warn")
        assert len(ds) == 1

    def test_envelope_reject_mode(self, tmp_path):
        p = write(tmp_path, HEADER + "2000,5,3000,300,30,50000,big\n")
        with pytest.raises(DataError, match="outside envelope"):
            load_csv(p, range_mode="reject")

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "D_mm,t_mm,L_mm,fy_MPa,fc_MPa,N_kN\n100,5,300,300,30,650\n")
        with pytest.raises(DataError, match="header"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, HEADER + "100,five,300,300,30,650,x\n")
        with pytest.raises(DataError, match="row 2: non-numeric t"):
            load_csv(p)

    def test_non_positive_value(self, tmp_path):
        p = write(tmp_path, HEADER + "100,5,300,-300,30,650,x\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_crlf_accepted(self, tmp_path):
        p = write(tmp_path, HEADER.replace("\n", "\r\n")
                  + "100,5,300,300,30,650,a\r\n")
        assert len(load_csv(p)) == 1

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
        text = HEADER + "100,5,300,300,30,650,a\n" + "200,6,900,400,50,2100,b\n"
        plain = write(tmp_path, text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_csv(bom) == load_csv(plain)

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_no_data_rows_rejected(self, tmp_path, body):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, HEADER + body))

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(25, 3, 0.1)
        p1 = tmp_path / "a.csv"
        save_csv(ds, p1)
        ds2 = load_csv(p1)
        for a, b in zip(ds.specimens, ds2.specimens):
            for f in ("D", "t", "L", "fy", "fc", "N"):
                assert getattr(a, f) == getattr(b, f)
        p2 = tmp_path / "b.csv"
        save_csv(ds2, p2)
        assert p1.read_text() == p2.read_text()


# ---------------------------------------------------------------- oracle
# The per-row loader that the array-checked one replaced, kept verbatim as
# the reference for messages, warnings and specimens.

def _per_row_load_csv(path, range_mode="warn"):
    if range_mode not in ("warn", "reject"):
        raise ValueError(f"range_mode must be 'warn' or 'reject', got {range_mode!r}")
    specimens = []
    problems = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(
                f"{path}: header {header!r} does not match required schema {CSV_HEADER!r}"
            )
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CSV_HEADER):
                problems.append(f"row {rownum}: expected {len(CSV_HEADER)} fields, got {len(row)}")
                continue
            values = {}
            ok = True
            for name, cell in zip(("D", "t", "L", "fy", "fc", "N"), row[:6]):
                try:
                    values[name] = float(cell)
                except ValueError:
                    problems.append(f"row {rownum}: non-numeric {name} value {cell!r}")
                    ok = False
            if not ok:
                continue
            s = Specimen(**values, source_id=row[6].strip())
            bad = s.invariant_violations()
            if bad:
                problems.append(f"row {rownum}: " + "; ".join(bad))
                continue
            env = s.envelope_violations()
            if env:
                if range_mode == "reject":
                    problems.append(f"row {rownum}: " + "; ".join(env))
                    continue
                warnings.warn(f"{path} row {rownum}: " + "; ".join(env), stacklevel=2)
            specimens.append(s)
    if problems:
        raise DataError(f"{path}: {len(problems)} bad row(s):\n" + "\n".join(problems))
    return Dataset(specimens=tuple(specimens))


def _outcome(loader, path, range_mode):
    """(specimens or DataError text, warning texts in order) of one load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loader(path, range_mode=range_mode).specimens
        except DataError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


# every bad-row kind, between good rows and out-of-envelope ones
MIXED_ROWS = [
    "100,5,300,300,30,650,good-a",            # 2
    "100,5,300,300,30,650",                   # 3 short row
    "100,five,300,abc,30,650,text",           # 4 two non-numeric cells
    "nan,5,300,300,30,650,nan-D",             # 5
    "100,5,inf,300,30,650,inf-L",             # 6
    "100,60,300,300,30,650,thick",            # 7 D <= 2t
    "2000,5,3000,300,30,50000,big",           # 8 D above the envelope
    "",                                       # 9 blank, skipped
    "100,5,300,1200,250,650,strong",          # 10 fy and fc outside
    "100,5,300,-300,30,-inf,negative",        # 11
    "100,5,300,300,30,650,x,extra",           # 12 too many fields
    "100,5,300,300,30,650,good-b",            # 13
    "60,40,300,300,30,nan,both",              # 14 D <= 2t and N nan
    "40,5,300,300,30,650,small",              # 15 D below the envelope
    "50,25,300,300,30,650,no-core",           # 16 D == 2t inside the envelope
    "44.95,0.52,114.3,178.28,6.41,650,low",   # 17 on the lower envelope bounds
    "1020,30,5560,1153,200,650,high",         # 18 on the upper envelope bounds
    "100,5,300,300,30,inf,inf-N",             # 19 N has no envelope
    "100,5,300,300,30,0,zero-N",              # 20
]

MIXED_ERROR = """{path}: 12 bad row(s):
row 3: expected 7 fields, got 6
row 4: non-numeric t value 'five'
row 4: non-numeric fy value 'abc'
row 5: D=nan must be a positive finite number
row 6: L=inf must be a positive finite number
row 7: D=100.0 must exceed 2*t=120.0
row 11: fy=-300.0 must be a positive finite number; N=-inf must be a positive finite number
row 12: expected 7 fields, got 8
row 14: N=nan must be a positive finite number; D=60.0 must exceed 2*t=80.0
row 16: D=50.0 must exceed 2*t=50.0
row 19: N=inf must be a positive finite number
row 20: N=0.0 must be a positive finite number"""

MIXED_REJECTED = """
row 8: D=2000.0 outside envelope [44.95, 1020.0]
row 10: fy=1200.0 outside envelope [178.28, 1153.0]; fc=250.0 outside envelope [6.41, 200.0]
row 15: D=40.0 outside envelope [44.95, 1020.0]"""

MIXED_WARNINGS = [
    "row 8: D=2000.0 outside envelope [44.95, 1020.0]",
    "row 10: fy=1200.0 outside envelope [178.28, 1153.0]; fc=250.0 outside envelope [6.41, 200.0]",
    "row 15: D=40.0 outside envelope [44.95, 1020.0]",
]


class TestArrayCheckedLoad:
    """load_csv against the per-row loader: the same DataError text, the
    same warnings in the same order, and equal specimens."""

    def test_mixed_bad_rows_warn_mode(self, tmp_path):
        p = write(tmp_path, HEADER + "\n".join(MIXED_ROWS) + "\n")
        got = _outcome(load_csv, p, "warn")
        assert got == _outcome(_per_row_load_csv, p, "warn")
        assert got[0] == MIXED_ERROR.format(path=p)
        assert got[1] == [(UserWarning, f"{p} {w}") for w in MIXED_WARNINGS]

    def test_mixed_bad_rows_reject_mode(self, tmp_path):
        p = write(tmp_path, HEADER + "\n".join(MIXED_ROWS) + "\n")
        got = _outcome(load_csv, p, "reject")
        assert got == _outcome(_per_row_load_csv, p, "reject")
        # the envelope rows join the problems in row order
        lines = (MIXED_ERROR + MIXED_REJECTED).format(path=p).split("\n")
        want = [lines[0].replace("12 bad", "15 bad")] + sorted(
            lines[1:], key=lambda line: int(line.split(":")[0].split()[1]))
        assert got == ("\n".join(want), [])

    @pytest.mark.parametrize("range_mode", ["warn", "reject"])
    def test_envelope_rows_only(self, tmp_path, range_mode):
        kept = ("good-a", "big", "strong", "good-b", "small", "low", "high")
        rows = [r for r in MIXED_ROWS if r.endswith(kept)]
        p = write(tmp_path, HEADER + "\n".join(rows) + "\n")
        got = _outcome(load_csv, p, range_mode)
        assert got == _outcome(_per_row_load_csv, p, range_mode)
        if range_mode == "warn":
            assert [s.source_id for s in got[0]] == list(kept)
            assert len(got[1]) == 3

    @pytest.mark.parametrize("range_mode", ["warn", "reject"])
    def test_blank_and_short_rows(self, tmp_path, range_mode):
        # blank lines (no cell, or one blank cell) are skipped; any other
        # row of the wrong width is a problem at its row number
        rows = ["100,5,300,300,30,650,a", " ", "abc", "", ",", ",,,,,,",
                "  ,  ", "100,5,300,300,30,650,b", "\t"]
        p = write(tmp_path, HEADER + "\n".join(rows) + "\n")
        got = _outcome(load_csv, p, range_mode)
        assert got == _outcome(_per_row_load_csv, p, range_mode)
        assert got[0].split("\n")[1:] == [
            "row 4: expected 7 fields, got 1", "row 6: expected 7 fields, got 2",
            "row 7: non-numeric D value ''", "row 7: non-numeric t value ''",
            "row 7: non-numeric L value ''", "row 7: non-numeric fy value ''",
            "row 7: non-numeric fc value ''", "row 7: non-numeric N value ''",
            "row 8: expected 7 fields, got 2"]

    def test_large_round_trip(self, tmp_path):
        ds = generate_synthetic(25_600, 9, 0.1)
        p = tmp_path / "large.csv"
        save_csv(ds, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_csv(p)
        assert loaded.specimens == ds.specimens
        assert _per_row_load_csv(p).specimens == loaded.specimens


# rows of every kind the two parses tell apart: clean ones, ones of the
# wrong width, blank ones, ids that loadtxt's defaults would cut or that
# need quotes, numeric cells only float() takes, and flagged rows
_NUMBER = st.floats(allow_nan=False, allow_infinity=False)
_CLEAN_ROW = st.builds(
    lambda nums, source_id: ",".join(map(repr, nums)) + "," + source_id,
    st.tuples(st.floats(50, 1000), st.floats(1, 20), st.floats(200, 5000),
              st.floats(200, 1100), st.floats(10, 190), st.floats(100, 1e4)),
    st.text(alphabet="ab -_#é0\t", max_size=6))
_QUOTED_ID = st.text(alphabet='ab,"\r\n#', min_size=1, max_size=6).map(
    lambda i: '"' + i.replace('"', '""') + '"')
# rows that pass load_csv's line scan, for loadtxt to take or refuse
_ONE_LINE_ROW = st.one_of(
    _CLEAN_ROW,
    st.sampled_from([
        "100,5,300,300,30,650,#lab#",
        "1_00,5,300,300,30,650,underscore",   # float() takes these; loadtxt does not
        "100,5,٣٠٠,300,30,650,arabic-indic",
        "１００,5,300,300,30,650,fullwidth",
        "nan,5,300,300,30,650,nan-D",
        "100,5,300,300,30,1e400,huge-N",
        "100,5,300,300,30,-1e400,huge-negative-N",
        "2000,5,3000,300,30,50000,big",
        "100,5,300,1200,250,650,strong",
        "100,60,300,300,30,650,thick",
        "100,five,300,300,30,650,text",
        " 100 ,5,300,300,30,650,padded",
    ]),
    st.builds(lambda nums: ",".join(map(repr, nums)) + ",any", st.tuples(*[_NUMBER] * 6)),
)
_ROW = st.one_of(
    _ONE_LINE_ROW,
    _CLEAN_ROW.map(lambda r: r.rpartition(",")[0]),                  # 6 fields
    _CLEAN_ROW.map(lambda r: r + ",extra"),                          # 8 fields
    st.sampled_from(["", " ", "\t", "  ", ",", ",,,,,,"]),            # blank or empty
    st.builds(lambda r, i: r.rpartition(",")[0] + "," + i, _CLEAN_ROW, _QUOTED_ID),
)


@st.composite
def _csv_files(draw):
    """(text, whether it starts with a byte-order mark) of a specimen CSV
    holding at least one clean row, so that the per-row loader, which takes
    a file of no rows, agrees with load_csv."""
    rows = draw(st.lists(draw(st.sampled_from([_ROW, _ONE_LINE_ROW])), max_size=12))
    rows.insert(draw(st.integers(0, len(rows))), draw(_CLEAN_ROW))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([",".join(CSV_HEADER)] + rows) + draw(st.sampled_from([eol, ""]))
    return text, draw(st.booleans())


class TestCheckedAndFastParse:
    """load_csv reads a clean file in C and checks any other row by row;
    either way it agrees with the per-row loader."""

    @given(_csv_files())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_per_row_loader(self, tmp_path, file):
        text, bom = file
        p = tmp_path / "data.csv"
        for range_mode in ("warn", "reject"):
            # the per-row loader reads no byte-order mark: it gets the same
            # text, at the same path, without one
            p.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
            got = _outcome(load_csv, p, range_mode)
            p.write_bytes(text.encode())
            assert got == _outcome(_per_row_load_csv, p, range_mode)

    @pytest.mark.parametrize("eol, bom", [("\n", b""), ("\r\n", b"\xef\xbb\xbf")])
    def test_clean_file_skips_the_checked_path(self, tmp_path, monkeypatch, eol, bom):
        ds = generate_synthetic(ROW_BLOCK + 7, 14, 0.1)
        p = tmp_path / "clean.csv"
        save_csv(ds, p)
        p.write_bytes(bom + p.read_bytes().replace(b"\n", eol.encode()))

        def refuse(*args):
            raise AssertionError("a clean file was checked row by row")

        monkeypatch.setattr("cfstcap.data._checked_rows", refuse)
        assert load_csv(p).specimens == ds.specimens


class TestSpecimenRecord:
    """Specimen is an immutable named tuple, equal and hashable by its
    fields, in CSV column order."""

    FIELDS = (100.0, 5.0, 300.0, 300.0, 30.0, 650.0, "lab-1")

    def test_positional_and_keyword_construction(self):
        s = Specimen(*self.FIELDS)
        assert s == Specimen(D=100.0, t=5.0, L=300.0, fy=300.0, fc=30.0, N=650.0,
                             source_id="lab-1")
        assert tuple(s) == self.FIELDS
        assert Specimen._fields == ("D", "t", "L", "fy", "fc", "N", "source_id")
        assert (s.D, s.t, s.L, s.fy, s.fc, s.N, s.source_id) == self.FIELDS

    def test_default_source_id(self):
        assert Specimen(100, 5, 300, 300, 30, 650).source_id == ""
        assert Specimen(100, 5, 300, 300, 30, 650) == Specimen(*self.FIELDS[:6], "")

    def test_immutable(self):
        s = Specimen(*self.FIELDS)
        with pytest.raises(AttributeError):
            s.D = 1.0
        with pytest.raises(TypeError):
            s[0] = 1.0

    def test_equal_and_hashable_by_fields(self):
        a, b = Specimen(*self.FIELDS), Specimen(*self.FIELDS)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Specimen(*self.FIELDS[:6], "lab-2")
        assert a != a._replace(N=651.0)

    def test_replace(self):
        s = Specimen(*self.FIELDS)
        r = s._replace(fc=40.0, source_id="x")
        assert type(r) is Specimen
        assert tuple(r) == (100.0, 5.0, 300.0, 300.0, 40.0, 650.0, "x")
        assert s.fc == 30.0   # the original is unchanged

    def test_pickle_round_trip(self):
        s = Specimen(*self.FIELDS)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and type(back) is Specimen

    def test_methods_kept(self):
        assert Specimen(*self.FIELDS).invariant_violations() == []
        assert Specimen(100, 60, 300, 300, 30, 650).invariant_violations() == [
            "D=100 must exceed 2*t=120"]
        assert Specimen(2000, 5, 300, 300, 30, 650).envelope_violations() == [
            "D=2000 outside envelope [44.95, 1020.0]"]

    def test_csv_round_trip_gives_equal_records(self, tmp_path):
        ds = generate_synthetic(300, 4, 0.1)
        p = tmp_path / "s.csv"
        save_csv(ds, p)
        loaded = load_csv(p).specimens
        assert loaded == ds.specimens
        assert all(type(s) is Specimen for s in loaded)
        assert all(type(v) is float for s in loaded for v in s[:6])


class TestSplit:
    def test_sizes(self):
        ds = generate_synthetic(10, 0, 0)
        tr, va = split(ds, 0.8, 1)
        assert len(tr) == 8 and len(va) == 2

    def test_deterministic(self):
        ds = generate_synthetic(100, 0, 0)
        a = split(ds, 0.7, 9)
        b = split(ds, 0.7, 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_split(self):
        ds = generate_synthetic(100, 0, 0)
        a, _ = split(ds, 0.8, 1)
        b, _ = split(ds, 0.8, 2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,fraction", [(0, 0.5), (3, 0.8), (7, 0.33), (11, 0.9)])
    def test_disjoint_exhaustive(self, seed, fraction):
        ds = generate_synthetic(57, 1, 0)
        tr, va = split(ds, fraction, seed)
        union = np.sort(np.concatenate([tr, va]))
        assert np.array_equal(union, np.arange(len(ds)))

    def test_too_small(self):
        ds = Dataset(specimens=(Specimen(100, 5, 300, 300, 30, 650),))
        with pytest.raises(DataError):
            split(ds, 0.5, 0)


class TestGenerateSynthetic:
    def test_zero_noise_matches_han(self):
        from cfstcap.codes import han_capacity_kn
        ds = generate_synthetic(50, 5, 0.0)
        for s in ds.specimens:
            assert s.N == pytest.approx(han_capacity_kn(s.D, s.t, s.fy, s.fc), rel=1e-12)

    def test_invariants_hold(self):
        ds = generate_synthetic(10_000, 17, 0.2)
        assert all(not s.invariant_violations() for s in ds.specimens)

    def test_seed_determinism(self):
        a = generate_synthetic(20, 4, 0.1)
        b = generate_synthetic(20, 4, 0.1)
        c = generate_synthetic(20, 5, 0.1)
        assert a.specimens == b.specimens
        assert a.specimens != c.specimens


# ---------------------------------------------------------------- table
# The tuple-building producers and writer that the column table replaced,
# kept as the reference for its rows and bytes.

def _tuple_generate_synthetic(n, seed, noise_cov=0.0):
    rng = np.random.default_rng(seed)

    def logu(lo, hi, size):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    D = logu(*ENVELOPE["D"], n)
    t_hi = np.minimum(ENVELOPE["t"][1], 0.45 * D)
    t = np.exp(rng.uniform(np.log(ENVELOPE["t"][0]), np.log(t_hi)))
    L = logu(*ENVELOPE["L"], n)
    fy = logu(*ENVELOPE["fy"], n)
    fc = logu(*ENVELOPE["fc"], n)
    if noise_cov > 0:
        sigma2 = math.log(1.0 + noise_cov**2)
        noise = np.exp(rng.normal(-0.5 * sigma2, math.sqrt(sigma2), n))
    else:
        noise = np.ones(n)
    cap = han_capacity_kn(D, t, fy, fc) * noise
    return tuple(
        Specimen(D=float(D[i]), t=float(t[i]), L=float(L[i]), fy=float(fy[i]),
                 fc=float(fc[i]), N=float(cap[i]), source_id=f"synth-{seed}-{i}")
        for i in range(n))


def _per_row_save_csv(specimens, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in specimens:
            writer.writerow([*map(repr, s[:6]), s.source_id])


def _bits(rows):
    """Every row's float fields as raw bits, and its source id and types."""
    return ([np.array(r[:6], dtype=float).view(np.int64).tolist() for r in rows],
            [(type(r), r.source_id, *map(type, r)) for r in rows])


class TestSpecimenTable:
    """The column table against the tuple-building path it replaced."""

    N = 2 * ROW_BLOCK + 37   # three blocks, the last one partial

    def test_synthetic_rows_bit_identical(self):
        for n, seed, noise in ((1, 0, 0.0), (self.N, 3, 0.1), (ROW_BLOCK, 8, 0.0)):
            got = generate_synthetic(n, seed, noise).specimens
            assert isinstance(got, SpecimenTable)
            assert _bits(got) == _bits(_tuple_generate_synthetic(n, seed, noise))

    def test_loaded_rows_bit_identical(self, tmp_path):
        p = tmp_path / "s.csv"
        _per_row_save_csv(_tuple_generate_synthetic(self.N, 4, 0.1), p)
        got = load_csv(p).specimens
        assert isinstance(got, SpecimenTable)
        assert _bits(got) == _bits(_per_row_load_csv(p).specimens)

    def test_bad_rows_in_a_later_block(self, tmp_path):
        # a block checked row by row keeps the row numbers of the rows after it
        rows = [",".join(map(repr, s[:6])) + f",{s.source_id}"
                for s in _tuple_generate_synthetic(self.N, 5, 0.1)]
        rows[ROW_BLOCK + 3] = "100,5,300,300,30"
        rows[ROW_BLOCK + 9] = ""
        rows[2 * ROW_BLOCK + 1] = "100,60,300,300,30,650,thick"
        p = tmp_path / "s.csv"
        p.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        got = _outcome(load_csv, p, "warn")
        assert got == _outcome(_per_row_load_csv, p, "warn")
        assert got[0].split("\n")[1:] == [
            f"row {ROW_BLOCK + 5}: expected 7 fields, got 5",
            f"row {2 * ROW_BLOCK + 3}: D=100.0 must exceed 2*t=120.0"]
        rows[ROW_BLOCK + 3] = rows[2 * ROW_BLOCK + 1] = rows[0]
        p.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        assert _outcome(load_csv, p, "warn") == _outcome(_per_row_load_csv, p, "warn")

    def test_slice_is_a_read_only_view(self):
        table = generate_synthetic(self.N, 6, 0.1).specimens
        part = table[ROW_BLOCK - 5:ROW_BLOCK + 40:3]
        assert isinstance(part, SpecimenTable)
        assert np.shares_memory(part.values, table.values)
        assert list(part) == list(table)[ROW_BLOCK - 5:ROW_BLOCK + 40:3]
        for view in (table.values, part.values, table.column("N"),
                     numeric_columns(part, 5), build_frame(table).y):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 1.0
        with pytest.raises(AttributeError):
            table.values = np.zeros((self.N, 6))

    def test_iteration_equals_indexing(self):
        table = generate_synthetic(self.N, 7, 0.1).specimens
        rows = list(table)
        assert len(rows) == len(table) == self.N
        assert rows == [table[i] for i in range(self.N)]
        assert all(type(r) is Specimen for r in rows)
        assert table[-1] == rows[-1] and table[np.int64(ROW_BLOCK)] == rows[ROW_BLOCK]
        assert table[-self.N] == rows[0]
        for bad in (self.N, -self.N - 1):
            with pytest.raises(IndexError):
                table[bad]
        with pytest.raises(TypeError):
            table[1.0]

    def test_equal_and_hashable_as_tuples(self):
        table = generate_synthetic(40, 8, 0.1).specimens
        rows = tuple(table)
        assert table == rows and rows == table and table == list(rows)
        assert hash(table) == hash(rows)
        assert table == SpecimenTable.from_rows(rows) == generate_synthetic(40, 8, 0.1).specimens
        assert table != rows[:-1] and table != table[:-1]
        assert table != rows[:-1] + (rows[-1]._replace(N=1.0),)
        assert table != table[:-1] + (rows[-1]._replace(source_id="x"),)
        assert table != "not specimens"
        ref = Specimen(100, 5, 300, 300, 30, 650)
        joined = table + (ref,)
        assert isinstance(joined, SpecimenTable) and joined == rows + (ref,)
        assert Dataset(specimens=rows) == Dataset(specimens=table)
        assert pickle.loads(pickle.dumps(table)) == table

    def test_take(self):
        table = generate_synthetic(self.N, 9, 0.1).specimens
        idx = np.array([self.N - 1, 0, ROW_BLOCK, 5])
        assert table.take(idx) == [table[i] for i in idx]
        assert len(table.take([])) == 0

    def test_numeric_columns_table_and_list(self):
        table = generate_synthetic(self.N, 10, 0.1).specimens
        for width in (1, 5, 6):
            got = numeric_columns(table, width)
            want = numeric_columns(list(table), width)
            assert got.shape == want.shape == (self.N, width)
            assert np.array_equal(got, want)

    def test_save_csv_bytes_of_per_row_writer(self, tmp_path):
        for n in (1, ROW_BLOCK, self.N):
            ds = generate_synthetic(n, 11, 0.1)
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            save_csv(ds, a)
            _per_row_save_csv(ds.specimens, b)
            assert a.read_bytes() == b.read_bytes()

    # ids that csv.writer quotes (a comma, a quote, LF) and ones it leaves bare
    AWKWARD_IDS = ("a,b", 'say "hi"', '"', "two\nlines", '",\n"', ",", "plain",
                   " padded ", "", "é-ü", "tab\there")

    @staticmethod
    def _with_ids(dataset, ids):
        """The dataset with the ids of its second block onwards replaced,
        in turn, by ids; its first block keeps its own."""
        rows = [s if i < ROW_BLOCK else s._replace(source_id=ids[i % len(ids)])
                for i, s in enumerate(dataset.specimens)]
        return Dataset(tuple(rows))

    @staticmethod
    def _as_loaded(dataset):
        """The rows as load_csv reads them back: ids stripped of whitespace."""
        return [s._replace(source_id=s.source_id.strip()) for s in dataset.specimens]

    def test_save_csv_quotes_ids_as_csv_writer(self, tmp_path):
        ds = self._with_ids(generate_synthetic(ROW_BLOCK + 40, 12, 0.1), self.AWKWARD_IDS)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, a)
        _per_row_save_csv(ds.specimens, b)
        assert a.read_bytes() == b.read_bytes()
        assert list(load_csv(a).specimens) == self._as_loaded(ds)

    def test_save_csv_quotes_carriage_return(self, tmp_path):
        # csv.writer leaves a CR bare under the "\n" line terminator, and
        # the reader then ends the row there; a quoted CR reads back
        ids = ("a\rb", "c\r\nd", '\r"')
        ds = self._with_ids(generate_synthetic(ROW_BLOCK + 3, 13, 0.1), ids)
        p = tmp_path / "cr.csv"
        save_csv(ds, p)
        assert b'"a\rb"' in p.read_bytes() and b'"\r"""' in p.read_bytes()
        assert list(load_csv(p).specimens) == self._as_loaded(ds)


def _held_bytes(make):
    """Bytes that make's result keeps allocated, by tracemalloc."""
    make()  # imports and caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 25_600
    return held


class TestHeldMemory:
    """25,600 specimens as a table hold under half the memory that the
    tuple-per-specimen datasets held (8.5 MB synthetic, 7.8 MB loaded)."""

    def test_generate_synthetic(self):
        assert _held_bytes(lambda: generate_synthetic(25_600, 9, 0.1)) < 8.5e6 / 2

    def test_load_csv(self, tmp_path):
        p = tmp_path / "large.csv"
        save_csv(generate_synthetic(25_600, 9, 0.1), p)
        assert _held_bytes(lambda: load_csv(p)) < 7.8e6 / 2

    def test_load_csv_peak(self, tmp_path):
        """Loading the 25,600 specimens peaks at most 4.5 MB by tracemalloc;
        csv.reader's blocks and a float object per cell peaked at 5.3 MB."""
        p = tmp_path / "large.csv"
        save_csv(generate_synthetic(25_600, 9, 0.1), p)
        load_csv(p)  # imports and caches first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(loaded) == 25_600
        assert peak <= 4.5e6
