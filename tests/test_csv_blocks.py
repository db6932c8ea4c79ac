"""The trajectory and signal CSV readers read a file _CHUNK_ROWS lines at a
time, splitting plain blocks at their commas and passing any other block to
csv.reader.  These tests hold them to the row-by-row signal reader they
replaced (oracles.naive_read_signal_csv) on seeded mutants of a small
trajectory CSV, drive the same mutants through `stlcbf verify`, and check
that the block size changes no array, sha256 check or fault line."""

import csv
import hashlib
import io
import json
import random

import numpy as np
import pytest

from stlcbf import log_from_dict, log_to_dict, read_signal_csv, run, write_log_csv
from stlcbf import sim
from stlcbf.cli import main
from stlcbf.controller import Team

from oracles import naive_read_signal_csv
from test_config_cli import _edit_log_doc, mini_config
from test_sim import ORACLE_CASES, _oracle_scenario


def _cell_spans(text: str) -> list:
    """(start, end) of every cell of an unquoted CSV text, row by row."""
    spans, start = [], 0
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        at = start
        for cell in body.split(","):
            spans.append((at, at + len(cell)))
            at += len(cell) + 1
        start += len(line)
    return spans


def _mutant(text: str, kind: str, rng: random.Random) -> str:
    """text with one seeded fault of the given kind."""
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    at = rng.randrange(len(text))
    commas = [i for i, ch in enumerate(text) if ch == ","]
    lo, hi = rng.choice(_cell_spans(text))
    if kind in ('"', "\0", "\r", "\x0c", "\u2028"):
        return text[:at] + kind + text[at:]
    if kind == "form feed line at end":  # a cell csv keeps, which splitlines would take for a line end
        return text + "\x0c"
    if kind == "blank line":
        return "".join(lines[:k] + ["\r\n"] + lines[k:])
    if kind == "drop comma":
        c = rng.choice(commas)
        return text[:c] + text[c + 1 :]
    if kind == "double comma":
        c = rng.choice(commas)
        return text[:c] + "," + text[c:]
    if kind in ("abc", "nan", "long"):
        return text[:lo] + ("1" * 200000 if kind == "long" else kind) + text[hi:]
    if kind == "cut line":
        body = lines[k].rstrip("\r\n")
        lines[k] = body[: rng.randrange(len(body) + 1)] + lines[k][len(body) :]
        return "".join(lines)
    if kind == "no final newline":
        return text.rstrip("\r\n")
    if kind == "quote row":
        body = lines[k].rstrip("\r\n")
        lines[k] = f'"{body}"' + lines[k][len(body) :]
        return "".join(lines)
    raise AssertionError(kind)


KINDS = ('"', "\0", "\r", "\x0c", "\u2028", "form feed line at end", "blank line", "drop comma",
         "double comma", "abc", "nan", "long", "cut line", "no final newline", "quote row")


def _outcome(read, path):
    """What a signal reader makes of path: its layout and arrays, or its
    one-line refusal (naming the file, which the old reader left to
    SampledSignal's own refusals)."""
    try:
        layout, sig = read(path)
    except ValueError as err:
        msg = str(err)
        assert "\n" not in msg
        return msg if msg.startswith(str(path)) else f"{path}: {msg}"
    return layout, sig.times.shape, sig.times.tobytes(), sig.states.shape, sig.states.tobytes()


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A mini_config run written by `stlcbf simulate`: its config, the files
    of the output directory, and the trajectory CSV's text."""
    d = tmp_path_factory.mktemp("mini")
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(mini_config()))
    assert main(["construct", str(cfg_path), "-o", str(d / "barriers.json")]) == 0
    assert main(["simulate", str(cfg_path), str(d / "barriers.json"), "-o", str(d / "out")]) == 0
    files = {f: (d / "out" / f).read_bytes() for f in ("log.json", "trajectory.csv")}
    return cfg_path, files, files["trajectory.csv"].decode()


def _mutants(text):
    for kind in KINDS:
        for seed in range(6):
            yield kind, seed, _mutant(text, kind, random.Random(f"{kind} {seed}"))


@pytest.mark.parametrize("chunk", [3, 256])
def test_signal_reader_matches_row_reader_on_mutants(simulated, tmp_path, monkeypatch, chunk):
    """Every seeded mutant reads to bitwise-equal arrays under both readers,
    or both refuse it with the same one-line message."""
    monkeypatch.setattr(sim, "_CHUNK_ROWS", chunk)
    path = tmp_path / "sig.csv"
    read = refused = 0
    for kind, seed, text in _mutants(simulated[2]):
        path.write_bytes(text.encode())
        got, want = _outcome(read_signal_csv, path), _outcome(naive_read_signal_csv, path)
        assert got == want, (kind, seed)
        refused += isinstance(got, str)
        read += not isinstance(got, str)
    assert read > 10 and refused > 10


def test_verify_mutants_end_in_a_verdict_or_one_line(simulated, tmp_path, capsys):
    """verify on each mutant, its sha256 forged into log.json, exits 0, 1 or
    2; only exit 2 writes to stderr, one line, and nothing is a traceback."""
    cfg_path, files, text = simulated
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    codes = set()
    for kind, seed, mutant in _mutants(text):
        (out / "log.json").write_bytes(files["log.json"])
        (out / "trajectory.csv").write_bytes(mutant.encode())
        _edit_log_doc(out, lambda d: d["log"]["trajectory"].update(
            sha256=hashlib.sha256(mutant.encode()).hexdigest()))
        code = main(["verify", str(out / "log.json"), str(cfg_path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (kind, seed, code, err)
        assert len(err.splitlines()) == (code == 2) and "Traceback" not in err, (kind, seed, err)
        codes.add(code)
    assert {0, 2} <= codes


def test_one_cell_rows_are_refused(tmp_path):
    """A row of one cell was broadcast over the whole table row; it is a
    missing cell, in a step row and in the terminal row alike."""
    sc = _oracle_scenario(*ORACLE_CASES["ball-none-known"])
    log = run(sc)
    path = tmp_path / "trajectory.csv"
    write_log_csv(log, path)
    good = path.read_bytes().splitlines(keepends=True)
    for k in (5, len(good) - 1):
        data = b"".join(good[:k] + [b"0.5\r\n"] + good[k + 1 :])
        path.write_bytes(data)
        doc = log_to_dict(log, path.name, hashlib.sha256(data).hexdigest())
        with pytest.raises(ValueError, match=f"line {k + 1}: a missing, extra or non-numeric cell"):
            log_from_dict(doc, tmp_path, Team(sc.cliques, sc.agents))


def _rewrite(data: bytes, quoting=csv.QUOTE_MINIMAL, terminator="\r\n", edit=None) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if edit:
        edit(rows)
    out = io.StringIO(newline="")
    csv.writer(out, quoting=quoting, lineterminator=terminator).writerows(rows)
    return out.getvalue().encode()


def _set(r, c, value):
    return lambda rows: rows[r].__setitem__(c, value)


def _late_0xff(data: bytes) -> bytes:
    """data with its tenth-last byte, in the terminal row, set to 0xff."""
    return data[:-10] + b"\xff" + data[-9:]


def _variants(data: bytes) -> dict:
    """The written CSV, copies that are split at their commas or take
    csv.reader's path in some blocks or all, and copies with a fault at a
    known line."""
    n = data.count(b"\n")
    quoted_row = data.splitlines(keepends=True)
    quoted_row[4] = b'"' + quoted_row[4].rstrip(b"\r\n").replace(b",", b'","') + b'"\r\n'
    return {
        "written": data,
        "lf": _rewrite(data, terminator="\n"),
        # a cell csv.reader keeps whole, which float() reads as blank space around the number
        "vertical tab": _rewrite(data, edit=lambda rows: rows[5].__setitem__(1, rows[5][1] + "\x0b")),
        "arabic one": _rewrite(data, edit=_set(4, 1, "\u0661")),  # not ASCII: the csv path; float() reads 1
        "late 0xff": _late_0xff(data),
        "quoted": _rewrite(data, csv.QUOTE_ALL),
        "cr": _rewrite(data, terminator="\r"),
        "quoted cr": _rewrite(data, csv.QUOTE_ALL, "\r"),
        # a t cell that runs over two lines, so a quoted cell spans block edges
        "quoted newline": _rewrite(data, csv.QUOTE_ALL, edit=lambda rows: rows[3].__setitem__(0, rows[3][0] + "\n")),
        "one quoted row": b"".join(quoted_row),
        "blank lines": data.replace(b"\r\n", b"\r\n\r\n", 3),
        "non-numeric": _rewrite(data, edit=_set(6, 1, "abc")),
        "short row": _rewrite(data, edit=lambda rows: rows.__setitem__(n // 2, rows[n // 2][:1])),
        "quoted short row": _rewrite(data, csv.QUOTE_ALL, edit=lambda rows: (
            rows[2].__setitem__(1, rows[2][1] + "\n"), rows.__setitem__(7, rows[7][:1]))),
        "extra cell": _rewrite(data, edit=lambda rows: rows[n - 2].append("0.0")),
        "nan": _rewrite(data, edit=_set(5, 1, "nan")),
    }


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_block_size_changes_no_read(case, tmp_path, monkeypatch):
    """Read 1 or 3 lines at a time instead of 256, both readers give the same
    arrays, sha256 checks and fault lines on the written CSV, on copies that
    are quoted, CR-ended, or quoted in one row only, and on copies with a
    fault; the signal reader also matches the row-by-row reader."""
    sc = _oracle_scenario(*ORACLE_CASES[case])
    log = run(sc)
    team = Team(sc.cliques, sc.agents)
    write_log_csv(log, tmp_path / "written.csv")
    variants = _variants((tmp_path / "written.csv").read_bytes())

    def outcomes(name, data):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        signal = _outcome(read_signal_csv, path)
        forged = log_to_dict(log, path.name, hashlib.sha256(data).hexdigest())
        stale = log_to_dict(log, path.name, hashlib.sha256(variants["written"]).hexdigest())
        logs = []
        for doc in (forged, stale):
            try:
                logs.append(log_from_dict(doc, tmp_path, team).table.tobytes())
            except ValueError as err:
                logs.append(str(err))
        return signal, logs

    at_256 = {name: outcomes(name, data) for name, data in variants.items()}
    for name in variants:
        naive = _outcome(naive_read_signal_csv, tmp_path / f"{name}.csv")
        if name == "late 0xff":  # the row-by-row reader names the byte's position in a decode buffer
            assert naive.startswith(f"{tmp_path / name}.csv: 'utf-8' codec can't decode byte 0xff in position ")
        else:
            assert at_256[name][0] == naive, name
    for chunk in (1, 3):
        monkeypatch.setattr(sim, "_CHUNK_ROWS", chunk)
        for name, data in variants.items():
            assert outcomes(name, data) == at_256[name], (chunk, name)

    # the copies read as the file they copy, and each fault is named
    table = log.table.tobytes()
    copies = ("lf", "vertical tab", "quoted", "cr", "quoted cr", "quoted newline", "one quoted row")
    for name in copies + ("blank lines",):
        assert at_256[name][0] == at_256["written"][0], name
    assert at_256["written"][1][0] == table
    for name in copies:
        assert at_256[name][1] == [table, f"{tmp_path / name}.csv: sha256 does not match the log document"], name
    states = np.frombuffer(at_256["arabic one"][0][4]).reshape(at_256["arabic one"][0][3])
    assert states[3, 0] == 1.0 and states.tobytes() != at_256["written"][0][4]  # line 5's first x cell
    n = variants["written"].count(b"\n")
    assert at_256["short row"][0].endswith(f"line {n // 2 + 1}: a row shorter than the header")
    assert at_256["quoted short row"][0].endswith("line 9: a row shorter than the header")  # one row spans two lines
    assert at_256["quoted short row"][1][0].endswith("line 8: a missing, extra or non-numeric cell")  # rows counted
    assert at_256["non-numeric"][1][0].endswith("line 7: a missing, extra or non-numeric cell")
    assert at_256["extra cell"][1][0].endswith(f"line {n - 1}: a missing, extra or non-numeric cell")
    assert at_256["nan"][0].endswith("non-finite t or x cell")
    # the bad byte is refused before the sha256 check, on its line of the file
    late = _late_0xff(variants["written"])
    line, offset = late.count(b"\n"), len(late) - 10
    bad = (f"{tmp_path / 'late 0xff'}.csv: 'utf-8' codec can't decode byte 0xff at line {line}, "
           f"file offset {offset}: invalid start byte")
    assert at_256["late 0xff"] == (bad, [bad, bad])


class _CountedReader:
    """csv.reader, counting the rows its readers yield."""

    rows = 0
    reader = csv.reader

    def __init__(self, *args, **kwargs):
        self._rd = self.reader(*args, **kwargs)

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._rd)
        _CountedReader.rows += 1
        return row

    @property
    def line_num(self):
        return self._rd.line_num


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_written_csv_is_split_at_its_commas(chunk, tmp_path, monkeypatch):
    """The written CSV of every oracle case reads as the row-by-row reader
    reads it, and csv.reader reads its header and no other row."""
    monkeypatch.setattr(sim, "_CHUNK_ROWS", chunk)
    for case in sorted(ORACLE_CASES):
        sc = _oracle_scenario(*ORACLE_CASES[case])
        log = run(sc)
        path = tmp_path / f"{case}.csv"
        doc = log_to_dict(log, path.name, write_log_csv(log, path))
        want = _outcome(naive_read_signal_csv, path)
        monkeypatch.setattr(_CountedReader, "rows", 0)
        monkeypatch.setattr(csv, "reader", _CountedReader)
        got = _outcome(read_signal_csv, path)
        table = log_from_dict(doc, tmp_path, Team(sc.cliques, sc.agents)).table
        assert _CountedReader.rows == 2, case  # the header, once per reader
        monkeypatch.setattr(csv, "reader", _CountedReader.reader)
        assert got == want, case
        assert table.tobytes() == log.table.tobytes(), case
