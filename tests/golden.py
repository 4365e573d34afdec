"""The pinned golden tables of the test suite, and the script that re-records them.

Each table is a text file beside this one, one query a line and then its
pinned values, floats as float.hex():

- golden_intervals.txt: "name n x alpha lower upper", the interval() ends;
- golden_searches.txt: "name alpha p0 d n achieved", exact_n's answer;
- golden_estimates.txt: "name alpha p0 d start", exact_n's start.

Run as a script, from the root of a checkout,

    python tests/golden.py

it recomputes the values of every query, writes the tables, and prints each
moved value as old -> new and the largest relative move per table.  On a
tree whose results have not moved it writes byte-identical files.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
QUERY_TOKENS = 4  # every table's lines start with four query tokens


def rows(table: str) -> list[list[str]]:
    """The lines of a table, each split into its tokens."""
    return [line.split() for line in (HERE / table).read_text().splitlines()]


def searches() -> list[tuple]:
    """golden_searches.txt as (name, alpha, p0, d, n, achieved hex) rows."""
    return [(name, float(a), float(p0), float(d), int(n), achieved)
            for name, a, p0, d, n, achieved in rows("golden_searches.txt")]


def estimates() -> list[tuple]:
    """golden_estimates.txt as (name, alpha, p0, d, start hex) rows."""
    return [(name, float(a), float(p0), float(d), start)
            for name, a, p0, d, start in rows("golden_estimates.txt")]


def _recomputers() -> dict:
    """Table -> function of a row's query tokens that returns its value tokens."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from binomci import ConfidenceLevel, Observation, exact_n, interval, sample_size
    from test_methods import GOLDEN_SPECS
    from test_sample_size import ESTIMATE_METHODS, GOLDEN_METHODS

    def interval_ends(name, n, x, alpha):
        est = interval(GOLDEN_SPECS[name], Observation(int(x), int(n)), ConfidenceLevel(float(alpha)))
        return [est.lower.hex(), est.upper.hex()]

    def search(name, alpha, p0, d):
        res = exact_n(GOLDEN_METHODS[name], float(d), float(p0), ConfidenceLevel(float(alpha)))
        return [str(res.n), res.achieved.hex()]

    def start(name, alpha, p0, d):
        level = ConfidenceLevel(float(alpha))
        return [sample_size._estimate_for(ESTIMATE_METHODS[name], float(d), float(p0), level).hex()]

    return {"golden_intervals.txt": interval_ends, "golden_searches.txt": search,
            "golden_estimates.txt": start}


def _relative_move(old: str, new: str) -> float:
    a, b = (float.fromhex(v) if "0x" in v else float(v) for v in (old, new))
    return 0.0 if a == b else abs(b - a) / max(abs(a), abs(b))


def main() -> None:
    for table, recompute in _recomputers().items():
        lines, largest = [], 0.0
        for row in rows(table):
            query, old = row[:QUERY_TOKENS], row[QUERY_TOKENS:]
            new = recompute(*query)
            for before, after in zip(old, new):
                if before != after:
                    print(f"{table}: {' '.join(query)}: {before} -> {after}")
                    largest = max(largest, _relative_move(before, after))
            lines.append(" ".join(query + new) + "\n")
        (HERE / table).write_text("".join(lines))
        print(f"{table}: {len(lines)} rows, largest relative move {largest:.3g}")


if __name__ == "__main__":
    main()
