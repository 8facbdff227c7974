"""Sweep harness: verdicts, checkpointing, resume, determinism, parallelism."""

import json
from math import gcd
from pathlib import Path

import pytest

import apsum.sweeps
from apsum import (
    DomainError,
    resume,
    seed_grid,
    strip_timing,
    sweep_gamma6,
    sweep_uniqueness,
)


def test_grid_order_is_stable():
    grid = seed_grid((11, 13), (1, 2))
    assert grid == [(11, 1), (11, 2), (12, 1), (12, 2), (13, 1), (13, 2)]


def test_uniqueness_sweep_dim5_clean():
    report = sweep_uniqueness(5, (11, 16), (1, 4))
    assert len(report.records) == 6 * 4
    assert report.counterexamples == []
    verdicts = {(r["a"], r["d"]): r["verdict"] for r in report.records}
    assert verdicts[(12, 2)] == "skip"  # non-coprime
    assert verdicts[(11, 1)] == "match"
    assert all(r["verdict"] in ("match", "skip") for r in report.records)


def test_uniqueness_sweep_degenerate_dim2():
    report = sweep_uniqueness(2, (3, 10), (1, 5))
    assert len(report.records) == 8 * 5
    # a two-generator Apery expansion is a single bounded coefficient
    assert all(r["verdict"] in ("match", "skip") for r in report.records)


def test_uniqueness_sweep_records_dim7_violation():
    # 543 = 2*142 + 259 = 105 + 2*219 in the seven-generator family at
    # (34, 1): the sweep must surface it as a violation with its witness,
    # not as an error
    report = sweep_uniqueness(7, (34, 34), (1, 1))
    (record,) = report.records
    assert record["verdict"] == "violation"
    assert record["witness"]["value"] == 543
    assert record["witness"]["count"] == 2
    assert report.counterexamples == [record]


def test_gamma6_mismatch_is_recorded_with_its_witness(monkeypatch):
    # no swept grid yields a mismatch, so one more degree at n = 1..10 makes
    # 10 conjectured values larger by a
    real = apsum.sweeps.least_degrees

    def shifted(m, top):
        least = real(m, top)
        for n in range(1, 11):
            least[n] += 1
        return least

    monkeypatch.setattr(apsum.sweeps, "least_degrees", shifted)
    report = sweep_gamma6((17, 17), (1, 1))
    (record,) = report.records
    assert record["verdict"] == "mismatch"
    assert record["witness"]["count"] == 10
    assert len(record["witness"]["mismatches"]) == 8
    assert list(record) == ["a", "d", "m", "verdict", "witness", "ms"]
    assert report.counterexamples == [record]


def test_gamma6_sweep_reproduces_the_committed_record():
    # artifacts/big_gamma6.jsonl is plain JSONL (no checkpoint header); only the timing differs
    committed = Path(__file__).resolve().parent.parent / "artifacts" / "big_gamma6.jsonl"
    expected = [json.loads(line) for line in committed.read_text().splitlines()]
    assert len(expected) == 135 * 12
    assert strip_timing(sweep_gamma6((16, 150), (1, 12)).records) == strip_timing(expected)


def test_record_key_order():
    # --format csv writes records with json.dumps unsorted, so the order is output
    with_witness = ["a", "d", "m", "verdict", "witness", "ms"]
    skips = sweep_gamma6((3, 4), (1, 2)).records
    reasons = {(r["a"], r["d"]): r["witness"]["reason"] for r in skips if r["verdict"] == "skip"}
    assert reasons[(3, 1)] == "notMinimal" and reasons[(4, 2)] == "notCoprime"
    for record in skips:
        assert list(record) == (with_witness if "witness" in record else ["a", "d", "m", "verdict", "ms"])
    (violation,) = sweep_uniqueness(7, (34, 34), (1, 1)).records
    assert list(violation) == with_witness


def test_gamma6_sweep_reports_verdicts():
    report = sweep_gamma6((16, 22), (1, 3))
    assert len(report.records) == 7 * 3
    for record in report.records:
        assert record["verdict"] in ("match", "mismatch", "skip")
        assert set(record) >= {"a", "d", "m", "verdict", "ms"}
        coprime = gcd(record["a"], record["d"]) == 1
        assert (record["verdict"] == "skip" and not coprime) or coprime


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    report = sweep_uniqueness(5, (11, 13), (1, 3), checkpoint_path=path)
    header, *lines = (tmp_path / "sweep.jsonl").read_text().splitlines()
    assert json.loads(header) == {"checkpoint": "uniqueness", "m": 5}
    assert len(lines) == len(report.records) == 9
    cursor = resume(path)
    assert cursor.valid_lines == 1 + 9
    assert cursor.corrupt_line is None

    # a rerun over the same grid recomputes nothing
    again = sweep_uniqueness(5, (11, 13), (1, 3), checkpoint_path=path)
    assert again.reused == 9
    assert strip_timing(again.records) == strip_timing(report.records)


def test_checkpoint_resume_mid_grid(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    full = sweep_uniqueness(5, (11, 13), (1, 3), checkpoint_path=path)
    lines = Path(path).read_text().splitlines()

    partial_path = str(tmp_path / "partial.jsonl")
    with open(partial_path, "w") as fh:
        fh.write("\n".join(lines[:1 + 4]) + "\n")
    resumed = sweep_uniqueness(5, (11, 13), (1, 3), checkpoint_path=partial_path)
    assert resumed.reused == 4
    assert strip_timing(resumed.records) == strip_timing(full.records)
    assert len((tmp_path / "partial.jsonl").read_text().splitlines()) == 1 + 9


def test_checkpoint_truncated_final_line(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    sweep_uniqueness(5, (11, 12), (1, 2), checkpoint_path=path)
    raw = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(raw[:-7])  # chop into the last record
    cursor = resume(path)
    assert cursor.valid_lines == 1 + 3
    assert cursor.corrupt_line == 1 + 4

    # resuming drops the damaged tail and recomputes just that seed
    report = sweep_uniqueness(5, (11, 12), (1, 2), checkpoint_path=path)
    assert report.reused == 3
    cursor = resume(path)
    assert cursor.valid_lines == 1 + 4 and cursor.corrupt_line is None


@pytest.mark.parametrize("damage", ["unterminated", "noVerdict", "notUtf8"])
def test_checkpoint_corrupt_record_is_recomputed(tmp_path, damage):
    path = str(tmp_path / "sweep.jsonl")
    fresh = sweep_uniqueness(5, (11, 12), (1, 2))
    sweep_uniqueness(5, (11, 12), (1, 2), checkpoint_path=path)
    lines = Path(path).read_bytes().splitlines(keepends=True)
    if damage == "unterminated":
        bad = len(lines)  # the last record is complete JSON, but its newline is missing
        lines[-1] = lines[-1].rstrip(b"\n")
    elif damage == "noVerdict":
        bad = 3  # a middle record without its verdict
        entry = json.loads(lines[bad - 1])
        del entry["verdict"]
        lines[bad - 1] = json.dumps(entry).encode() + b"\n"
    else:
        bad = 3  # a middle record holding a byte that is not UTF-8
        lines[bad - 1] = lines[bad - 1][:5] + b"\xff" + lines[bad - 1][5:]
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))
    cursor = resume(path)
    assert cursor.corrupt_line == bad
    assert cursor.valid_lines == bad - 1
    assert cursor.byte_offset == sum(map(len, lines[:bad - 1]))

    # resuming truncates at the bad line and recomputes every seed from it on
    report = sweep_uniqueness(5, (11, 12), (1, 2), checkpoint_path=path)
    assert report.reused == bad - 2
    assert strip_timing(report.records) == strip_timing(fresh.records)
    cursor = resume(path)
    assert cursor.corrupt_line is None
    assert cursor.valid_lines == 1 + len(fresh.records)


def _resume_per_line(path):
    """Reference scan: each line decoded and read with its own json.loads."""
    header, completed, valid_lines, corrupt_line, byte_offset = None, {}, 0, None, 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                entry = json.loads(raw.decode("utf-8"))
                if not raw.endswith(b"\n"):
                    raise ValueError("incomplete line")
                if lineno == 1:
                    header = {"checkpoint": entry["checkpoint"], "m": entry["m"]}
                else:
                    key = (entry["a"], entry["d"], entry["m"])
                    if "verdict" not in entry:
                        raise ValueError("incomplete record")
                    completed[key] = entry
            except (ValueError, KeyError, TypeError):
                corrupt_line = lineno
                break
            valid_lines += 1
            byte_offset += len(raw)
    return apsum.sweeps.CheckpointCursor(header, completed, valid_lines, corrupt_line, byte_offset)


def test_each_cursor_starts_with_its_own_records(tmp_path):
    # a cursor is a value: every resume builds its own records, a missing
    # file's included, and no field of it can be reassigned
    missing = str(tmp_path / "missing.jsonl")
    first, second = resume(missing), resume(missing)
    first.completed[(11, 1, 5)] = {"verdict": "match"}
    assert second == (None, {}, 0, None, 0)  # header, completed, valid_lines, corrupt_line, byte_offset
    with pytest.raises(AttributeError):
        first.valid_lines = 1


def _assert_resume_matches_reference(path, data):
    path.write_bytes(data)
    got, want = resume(str(path)), _resume_per_line(str(path))
    assert (got.header, list(got.completed.items()), got.valid_lines, got.corrupt_line, got.byte_offset) == (
        want.header, list(want.completed.items()), want.valid_lines, want.corrupt_line, want.byte_offset), data


_HEADER = b'{"checkpoint":"uniqueness","m":5}\n'
_GRID_3x3 = [_HEADER] + [
    b'{"a":%d,"d":%d,"m":5,"ms":0,"verdict":"match"}\n' % (a, d) for a in (11, 12, 13) for d in (1, 2, 3)
]


def test_resume_matches_a_per_line_scan_at_every_truncation(tmp_path):
    data = b"".join(_GRID_3x3)
    for end in range(len(data) + 1):
        _assert_resume_matches_reference(tmp_path / "sweep.jsonl", data[:end])


_LINE_DAMAGE = {
    "notUtf8": lambda line: line[:5] + b"\xff" + line[5:],
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "crlf": lambda line: line[:-1] + b"\r\n",
    "blank": lambda line: b"\n",
    "spacesAndTabs": lambda line: b" \t" + line[:-1] + b"\t \n",
    "verticalTab": lambda line: b"\x0b" + line,  # not JSON whitespace
    "twoObjects": lambda line: line[:-1] + line,
    "splitObject": lambda line: b'{"x":1\n"y":2}\n',
    "list": lambda line: b"[1]\n",
    "string": lambda line: b'"x"\n',
    "nan": lambda line: b"NaN\n",
    "unhashableKey": lambda line: b'{"a":[1],"d":1,"m":5,"verdict":"match"}\n',
    "noVerdict": lambda line: b'{"a":11,"d":1,"m":5}\n',
    "header": lambda line: _HEADER,
}


@pytest.mark.parametrize("damage", sorted(_LINE_DAMAGE))
def test_resume_matches_a_per_line_scan_on_a_damaged_line(tmp_path, damage):
    # the header line, a middle record and the last record
    for at in (0, len(_GRID_3x3) // 2, len(_GRID_3x3) - 1):
        lines = list(_GRID_3x3)
        lines[at] = _LINE_DAMAGE[damage](lines[at])
        _assert_resume_matches_reference(tmp_path / "sweep.jsonl", b"".join(lines))


def test_checkpoint_refuses_another_sweep(tmp_path):
    # records are keyed by (a, d, m), so a gamma6 checkpoint would otherwise
    # hand all its verdicts to an m = 6 uniqueness sweep over the same grid
    path = tmp_path / "sweep.jsonl"
    sweep_gamma6((16, 20), (1, 3), checkpoint_path=str(path))
    before = path.read_bytes()
    for sweep in (lambda: sweep_uniqueness(6, (16, 20), (1, 3), checkpoint_path=str(path)),
                  lambda: sweep_uniqueness(5, (16, 20), (1, 3), checkpoint_path=str(path))):
        with pytest.raises(DomainError) as err:
            sweep()
        assert err.value.code == "checkpointMismatch"
    assert path.read_bytes() == before


def test_checkpoint_refuses_a_headerless_file(tmp_path):
    path = tmp_path / "sweep.jsonl"
    path.write_text('{"a":11,"d":1,"m":5,"ms":0,"verdict":"match"}\n')
    with pytest.raises(DomainError) as err:
        sweep_uniqueness(5, (11, 11), (1, 1), checkpoint_path=str(path))
    assert err.value.code == "checkpointMismatch"

    path.write_text("")  # an empty file starts a fresh checkpoint
    report = sweep_uniqueness(5, (11, 11), (1, 1), checkpoint_path=str(path))
    assert report.reused == 0 and resume(str(path)).valid_lines == 1 + 1


@pytest.mark.parametrize("a_range, d_range", [((16, 17), (0, 1)), ((16, 17), (-1, 1)), ((1, 2), (1, 1))])
def test_grid_outside_the_seeds_is_refused_before_the_checkpoint(tmp_path, a_range, d_range):
    # d = 0 would otherwise come back as notCoprime skips, and a < 2 or
    # d < 0 would fail mid-grid after the header was written
    path = tmp_path / "sweep.jsonl"
    for sweep in (lambda: sweep_uniqueness(6, a_range, d_range, checkpoint_path=str(path)),
                  lambda: sweep_gamma6(a_range, d_range, checkpoint_path=str(path))):
        with pytest.raises(DomainError) as err:
            sweep()
        assert err.value.code == "invalidSeed"
    assert not path.exists()


@pytest.mark.parametrize("a_range, d_range", [((20, 16), (1, 2)), ((16, 20), (3, 1)),
                                             ((16.0, 17), (1, 2)), (("16", 17), (1, 2)), ((16, 17), (1, 2.0)),
                                             ((16,), (1, 2)), ((16, 17, 18), (1, 2))])
def test_reversed_range_is_refused_before_the_checkpoint(tmp_path, a_range, d_range):
    # a reversed range is an empty grid, which would pass as a sweep with no
    # records; a bound that is not an int would fail mid-grid with a raw
    # TypeError after the header was written, and a range that is not a pair
    # would fail with a raw IndexError or drop its extra bounds unread
    path = tmp_path / "sweep.jsonl"
    for sweep in (lambda: sweep_uniqueness(5, a_range, d_range, checkpoint_path=str(path)),
                  lambda: sweep_gamma6(a_range, d_range, checkpoint_path=str(path))):
        with pytest.raises(DomainError) as err:
            sweep()
        assert err.value.code == "invalidRange"
    assert not path.exists()


@pytest.mark.parametrize("m, jobs, code", [(5.0, 1, "invalidSeed"), ("5", 1, "invalidSeed"),
                                           (5, 1.5, "invalidJobs"), (5, 0, "invalidJobs")])
def test_non_int_m_or_jobs_is_refused_before_the_checkpoint(tmp_path, m, jobs, code):
    # a float m would write the header and fail in the first task, and a
    # float jobs would write it and fail in the process pool
    path = tmp_path / "sweep.jsonl"
    sweeps = [lambda: sweep_uniqueness(m, (16, 17), (1, 1), jobs=jobs, checkpoint_path=str(path))]
    if isinstance(m, int):  # gamma6 fixes m = 6 itself
        sweeps.append(lambda: sweep_gamma6((16, 17), (1, 1), jobs=jobs, checkpoint_path=str(path)))
    for sweep in sweeps:
        with pytest.raises(DomainError) as err:
            sweep()
        assert err.value.code == code
    assert not path.exists()


def test_determinism_modulo_timing(tmp_path):
    first = sweep_gamma6((16, 20), (1, 2), checkpoint_path=str(tmp_path / "a.jsonl"))
    second = sweep_gamma6((16, 20), (1, 2), checkpoint_path=str(tmp_path / "b.jsonl"))
    assert strip_timing(first.records) == strip_timing(second.records)
    assert _lines_without_timing(tmp_path / "a.jsonl") == _lines_without_timing(tmp_path / "b.jsonl")


def _lines_without_timing(path):
    return [json.dumps({k: v for k, v in json.loads(line).items() if k != "ms"}, sort_keys=True)
            for line in path.read_text().splitlines()]


def test_parallel_matches_serial():
    serial = sweep_uniqueness(5, (11, 14), (1, 3), jobs=1)
    parallel = sweep_uniqueness(5, (11, 14), (1, 3), jobs=2)
    assert strip_timing(serial.records) == strip_timing(parallel.records)


def test_parallel_checkpoint_matches_serial(tmp_path):
    serial = sweep_gamma6((16, 22), (1, 3), checkpoint_path=str(tmp_path / "serial.jsonl"))
    parallel = sweep_gamma6((16, 22), (1, 3), jobs=2, checkpoint_path=str(tmp_path / "parallel.jsonl"))
    assert strip_timing(parallel.records) == strip_timing(serial.records)
    assert _lines_without_timing(tmp_path / "parallel.jsonl") == _lines_without_timing(tmp_path / "serial.jsonl")

    again = sweep_gamma6((16, 22), (1, 3), jobs=2, checkpoint_path=str(tmp_path / "parallel.jsonl"))
    assert again.reused == 21
    assert resume(str(tmp_path / "parallel.jsonl")).valid_lines == 1 + 21
