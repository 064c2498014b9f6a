import math

import numpy as np
import pytest

from calckit import signals
from calckit.errors import DimensionError, DomainError
from calckit.signals import READ_BLOCK_LINES, SampledSignal, read_csv, write_csv


def loop_write_csv(sig, path, headers):
    """Reference: the one-row-at-a-time writer that write_csv replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(headers) + "\n")
        for k in range(len(sig)):
            row = [repr(float(sig.t[k]))] + [repr(float(v)) for v in sig.y[k]]
            fh.write(",".join(row) + "\n")


SPECIAL = [0.0, -0.0, 1.0, -3.0, 0.1, 1e16, 1.5e-5, 5e-324, 1.7976931348623157e308,
           -2.2250738585072014e-308, 123456789.125, 1e-4, 9.999999999999999e15]


def random_signal(n, d, seed):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(1e-3, 1.0, n))
    y = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))
    y.ravel()[:len(SPECIAL)] = SPECIAL[:y.size]
    return SampledSignal(t, y)


@pytest.mark.parametrize("n, block", [(2, 4096), (4096, 4096), (4097, 4096), (3, 1),
                                      (50, 49), (50, 51)])
def test_write_csv_bytes_equal_row_loop(tmp_path, monkeypatch, n, block):
    monkeypatch.setattr(signals, "WRITE_BLOCK_ROWS", block)
    sig = random_signal(n, 3, seed=n)
    headers = ["vx", "vy", "vz"]
    write_csv(sig, tmp_path / "new.csv", headers)
    loop_write_csv(sig, tmp_path / "old.csv", headers)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = read_csv(tmp_path / "new.csv", expected_headers=headers)
    assert np.array_equal(back.t, sig.t) and np.array_equal(back.y, sig.y)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_write_csv_formats_runs_of_equal_bits_like_the_row_loop(tmp_path, monkeypatch, block):
    # runs are found by bit pattern: a dedup by value would write -0.0 as 0.0
    monkeypatch.setattr(signals, "WRITE_BLOCK_ROWS", block)
    rng = np.random.default_rng(block)
    n = 3 * 4096 + 5
    zeros = np.resize([0.0, -0.0, -0.0, 0.0, 5e-324, 5e-324], n)
    steps = np.repeat(rng.standard_normal(n), rng.integers(1, 18, n))[:n]
    runs_across_blocks = np.repeat(rng.standard_normal(4), [2, 4093, 4097, n - 8192])
    distinct = rng.standard_normal(n)
    assert len(steps) == n and len(np.unique(distinct)) == n
    sig = SampledSignal(np.arange(n) * 0.1, np.column_stack([zeros, steps, runs_across_blocks,
                                                              distinct]))
    headers = ["z", "s", "r", "d"]
    write_csv(sig, tmp_path / "new.csv", headers)
    loop_write_csv(sig, tmp_path / "old.csv", headers)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_text().startswith("t,z,s,r,d\n0.0,0.0,")
    back = read_csv(tmp_path / "new.csv")
    assert np.array_equal(back.y.view(np.int64), sig.y.view(np.int64))


def test_write_csv_puts_signals_on_shared_timestamps_side_by_side(tmp_path):
    a, b = random_signal(50, 2, seed=1), random_signal(50, 3, seed=2)
    b = SampledSignal(a.t, b.y)
    write_csv(a, tmp_path / "new.csv", ["a0", "a1", "b0", "b1", "b2"], b)
    loop_write_csv(SampledSignal(a.t, np.hstack([a.y, b.y])), tmp_path / "old.csv",
                   ["a0", "a1", "b0", "b1", "b2"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    with pytest.raises(DimensionError, match="one header per channel"):
        write_csv(a, tmp_path / "bad.csv", ["a0", "a1"], b)
    with pytest.raises(DimensionError, match="share their timestamps"):
        write_csv(a, tmp_path / "bad.csv", ["a0", "a1"] * 2, random_signal(50, 2, seed=3))


def test_write_csv_requires_headers(tmp_path):
    with pytest.raises(TypeError, match="headers"):
        write_csv(random_signal(3, 2, seed=0), tmp_path / "out.csv")


# ---------------------------------------------------------------- read_csv

SPELLINGS = ["1_000", " 2.5 ", "\t-3", "+.5", "5.", "1E5", "1e-400", "0.1", "७",
             "1.7976931348623157e308", "4.9e-324", "  +1e+05  "]


def data_lines(n, seed=0):
    """n data lines of 3 fields; every 97th line is blank, spellings vary."""
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(n):
        if k % 97 == 50:
            lines.append("   " if k % 2 else "")
            continue
        field = SPELLINGS[k % len(SPELLINGS)] if k % 7 == 0 else repr(rng.standard_normal())
        lines.append(f"{k},{field},{rng.uniform(-1, 1)!r}")
    return lines


def write_lines(path, lines, header="t,a,b", newline="\n"):
    path.write_bytes((newline.join([header] + lines) + newline).encode("utf-8"))


def test_read_csv_values_equal_float_per_field(tmp_path):
    lines = data_lines(2 * READ_BLOCK_LINES + 300)
    path = tmp_path / "in.csv"
    write_lines(path, lines)
    rows = [[float(f) for f in line.split(",")] for line in lines if line.strip()]
    sig = read_csv(path, expected_headers=["a", "b"])
    assert np.array_equal(sig.t, [r[0] for r in rows])
    assert np.array_equal(sig.y, [r[1:] for r in rows])


def bad_file(tmp_path, bad_index, bad_line, newline="\n"):
    """A file whose data line bad_index is replaced; returns (path, lineno)."""
    lines = data_lines(READ_BLOCK_LINES + 2000)
    assert lines[bad_index].strip()
    lines[bad_index] = bad_line
    path = tmp_path / "bad.csv"
    write_lines(path, lines, newline=newline)
    return path, bad_index + 2          # 1-based, after the header


@pytest.mark.parametrize("bad_line, message", [
    ("8300,1.0", "expected 3 fields, got 2"),
    ("8300,1.0,2.0,3.0", "expected 3 fields, got 4"),
    ("8300,0x10,1.0", "non-numeric field"),
    ("8300,,1.0", "non-numeric field"),
    ("8300,1__0,1.0", "non-numeric field"),
    ("8300,1.0,nan", "non-finite field"),
    ("Infinity,1.0,2.0", "non-finite field"),
    ("8300,-1e500,2.0", "non-finite field"),
])
def test_read_csv_reports_line_past_first_block(tmp_path, bad_line, message):
    path, lineno = bad_file(tmp_path, 8300, bad_line)
    assert lineno > READ_BLOCK_LINES
    with pytest.raises(DomainError, match=f"line {lineno}: {message}"):
        read_csv(path)


@pytest.mark.parametrize("blanks", [0, 2])
@pytest.mark.parametrize("bad_line, message", [
    ("1,2", "expected 3 fields, got 2"),
    ("1,x,2", "non-numeric field"),
    ("1,2,nan", "non-finite field"),
])
def test_read_csv_reports_first_line_of_a_block(tmp_path, blanks, bad_line, message):
    # data line READ_BLOCK_LINES - 1 is the first line of the second block;
    # blank lines put there push the bad line down and are counted
    first = READ_BLOCK_LINES - 1
    lines = data_lines(READ_BLOCK_LINES + 100)
    lines[first:first + blanks] = [""] * blanks
    lines[first + blanks] = bad_line
    write_lines(tmp_path / "bad.csv", lines)
    lineno = first + blanks + 2
    assert lineno == READ_BLOCK_LINES + 1 + blanks
    with pytest.raises(DomainError, match=f"line {lineno}: {message}"):
        read_csv(tmp_path / "bad.csv")


def test_read_csv_block_of_short_rows_reports_its_first_line(tmp_path):
    # every row one field short: np.array accepts the block, the reshape fails
    path = tmp_path / "short.csv"
    write_lines(path, ["", "0,1"] + [f"{k},{k}" for k in range(1, 50)])
    with pytest.raises(DomainError, match="line 3: expected 3 fields, got 2"):
        read_csv(path)


def test_read_csv_line_numbers_count_crlf_and_blank_lines(tmp_path):
    path, lineno = bad_file(tmp_path, READ_BLOCK_LINES - 1, "1,2,inf", newline="\r\n")
    with pytest.raises(DomainError, match=f"line {lineno}: non-finite field"):
        read_csv(path)


@pytest.mark.parametrize("first, second, lineno", [
    ("x,1,2", "1,2", 3),        # non-numeric before a short line
    ("1,nan,2", "1,2", 3),      # non-finite before a short line
    ("1,2", "x,1,2", 3),        # short line before a non-numeric one
    ("1,2,3", "1,inf,x", 4),    # one line: non-numeric wins over non-finite
])
def test_read_csv_first_malformed_line_wins(tmp_path, first, second, lineno):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,a,b\n0,0,0\n{first}\n{second}\n5,5,5\n")
    with pytest.raises(DomainError, match=f"line {lineno}: "):
        read_csv(path)


def test_read_csv_header_and_size_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("")
    with pytest.raises(DomainError, match="line 1: empty file"):
        read_csv(path)
    path.write_text("x,a\n0,1\n1,2\n")
    with pytest.raises(DomainError, match="line 1: header must start with 't,'"):
        read_csv(path)
    path.write_text("t,a\n\n0,1\n\n")
    with pytest.raises(DomainError, match="at least 2 samples"):
        read_csv(path)
    path.write_text("t,a\n1,1\n0,2\n")
    with pytest.raises(DomainError, match="strictly increasing"):
        read_csv(path)


# ---------------------------------------------------------------- differential

C_FIELDS = ["1.5", " 1.5", "+1", "-0"]          # np.loadtxt reads these too
GOOD_FIELDS = C_FIELDS + ["1_0", "１２", "١"]
BAD_FIELDS = ["\x1f1", "1e400", "nan", "Infinity", "0x1p3", "1,5"]


def float_reference(path, lines, width):
    """Per-field ``float``: (t, y) of the accepted file, or the message of
    the first malformed line (1-based, header and blank lines counted)."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            return f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
        try:
            row = [float(f) for f in fields]
        except ValueError:
            return f"{path}: line {lineno}: non-numeric field"
        if not all(map(math.isfinite, row)):
            return f"{path}: line {lineno}: non-finite field"
        rows.append(row)
    rows = np.array(rows)
    return rows[:, 0], rows[:, 1:]


@pytest.mark.parametrize("block", [5, READ_BLOCK_LINES])
def test_read_csv_accepts_and_reports_what_float_does(tmp_path, monkeypatch, block):
    # every bad kind is the only one in some files, among fields np.loadtxt
    # reads in half of them, so a block parser that accepted any bad kind
    # ("\x1f1" included) would read a file float refuses
    monkeypatch.setattr(signals, "READ_BLOCK_LINES", block)
    rng = np.random.default_rng(block)
    outcomes = set()
    for k in range(120):
        bad = BAD_FIELDS[k // 2 % len(BAD_FIELDS)] if k % 2 else None
        good = C_FIELDS if k // 12 % 2 else GOOD_FIELDS
        lines = []
        for i in range(int(rng.integers(2, 30))):
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "  "])))
            fields = [str(rng.choice(good)) for _ in range(2)]
            if bad is not None and rng.random() < 0.1:
                fields[int(rng.integers(2))] = bad
            lines.append(",".join([repr(float(i))] + fields))
        path = tmp_path / f"f{k}.csv"
        write_lines(path, lines)
        expected = float_reference(path, lines, 3)
        if isinstance(expected, str):
            with pytest.raises(DomainError) as info:
                read_csv(path, expected_headers=["a", "b"])
            assert str(info.value) == expected
            outcomes.add(expected.split(": ")[-1])
        else:
            sig = read_csv(path, expected_headers=["a", "b"])
            assert np.array_equal(sig.t.view(np.int64), expected[0].view(np.int64))
            assert np.array_equal(sig.y.view(np.int64), expected[1].view(np.int64))
            outcomes.add("accepted")
    assert outcomes == {"accepted", "expected 3 fields, got 4", "non-numeric field",
                        "non-finite field"}


def frozen(a):
    a.setflags(write=False)
    return a


def test_an_owned_read_only_float_array_is_adopted():
    t, y = frozen(np.arange(5.0)), frozen(np.ones((5, 2)))
    sig = SampledSignal(t, y)
    assert np.shares_memory(sig.t, t) and np.shares_memory(sig.y, y)


def test_a_writable_array_is_copied_and_later_writes_do_not_reach_the_signal():
    t, y = np.arange(5.0), np.ones((5, 2))
    sig = SampledSignal(t, y)
    t[0], y[:] = -1.0, 7.0
    assert sig.t.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0] and (sig.y == 1.0).all()
    assert not sig.t.flags.writeable and not sig.y.flags.writeable


def test_a_read_only_view_of_a_writable_base_is_copied():
    base = np.ones((5, 3))
    t, y = frozen(np.arange(5.0)[:]), frozen(base[:, 1:])
    sig = SampledSignal(t, y)
    base[:] = 7.0
    assert not np.shares_memory(sig.t, t) and not np.shares_memory(sig.y, base)
    assert (sig.y == 1.0).all()


def test_an_int_array_is_converted():
    t, y = frozen(np.arange(5)), frozen(np.arange(10).reshape(5, 2))
    sig = SampledSignal(t, y)
    assert sig.t.dtype == sig.y.dtype == np.float64
    assert sig.t.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0] and sig.y.tolist() == y.tolist()
    assert not sig.t.flags.writeable and not sig.y.flags.writeable


@pytest.mark.parametrize("make", [
    lambda path: SampledSignal([0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]]),
    lambda path: SampledSignal(np.arange(3.0), np.arange(3.0)),      # 1-D y: a column view
    lambda path: read_csv(path),
], ids=["lists", "1-D y", "read_csv"])
def test_every_signal_is_adopted_by_the_next(tmp_path, monkeypatch, make):
    monkeypatch.setattr(signals, "READ_BLOCK_LINES", 3)
    write_csv(random_signal(10, 2, seed=4), tmp_path / "s.csv", ["a", "b"])
    sig = make(tmp_path / "s.csv")
    again = SampledSignal(sig.t, sig.y)
    assert again.t is sig.t and again.y is sig.y
