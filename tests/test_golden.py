import sys

import golden

TABLES = ("golden_intervals.txt", "golden_searches.txt", "golden_estimates.txt")


def test_check_finds_a_moved_value_and_rerecording_restores_it(tmp_path, monkeypatch, capsys):
    # on the tree nothing moved; on a copy of the tables with one hex
    # altered, --check reports it and writes nothing, and a re-recording
    # writes the original bytes back
    assert golden.main(check=True) == 0
    original = {table: (golden.HERE / table).read_bytes() for table in TABLES}
    for table, data in original.items():
        (tmp_path / table).write_bytes(data)
    row = (tmp_path / "golden_searches.txt").read_text().splitlines()[0].split()
    hexed = row[-1]
    i = hexed.index("p") - 1  # the last hex digit
    row[-1] = hexed[:i] + ("1" if hexed[i] != "1" else "2") + hexed[i + 1:]
    altered = original["golden_searches.txt"].replace(
        " ".join(row[:-1] + [hexed]).encode(), " ".join(row).encode(), 1)
    assert altered != original["golden_searches.txt"]
    (tmp_path / "golden_searches.txt").write_bytes(altered)
    monkeypatch.setattr(golden, "HERE", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts its src/ first
    capsys.readouterr()

    assert golden.main(check=True) == 1
    assert f"{' '.join(row[:golden.QUERY_TOKENS])}: {row[-1]} -> {hexed}" in capsys.readouterr().out
    assert (tmp_path / "golden_searches.txt").read_bytes() == altered
    assert golden.main() == 1
    assert {table: (tmp_path / table).read_bytes() for table in TABLES} == original
