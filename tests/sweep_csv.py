"""Read a sweep's CSV one line per (scheme, C, r, t), and write a row out
as that line, for the tests that compare the two."""

import csv
import io
from fractions import Fraction

from macc.baselines import Scheme, Undefined
from macc.harness import CSV_HEADER, render_decimal, run_sweep, write_sweep_csv


def csv_line(row) -> str:
    """A ``ComparisonRow`` written out by the CSV's cell rules.

    A cell is empty for an undefined value, the integer for an int or a
    whole rate, otherwise 12 significant digits; mn always takes the
    12-digit form. Fields are quoted only where ``csv`` must quote them.
    """

    def cell(value):
        if isinstance(value, Undefined):
            return ""
        value = Fraction(value)
        return str(value.numerator) if value.denominator == 1 else render_decimal(value)

    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerow([
        row.scheme.value, row.C, row.r, cell(row.t), render_decimal(row.mn),
        cell(row.num_users), cell(row.rate), cell(row.per_user_rate),
        cell(row.subpacketization), "true" if row.defined else "false", row.note,
    ])
    return stream.getvalue()


def sweep_lines(spec) -> dict:
    """The lines of the CSV ``write_sweep_csv`` writes for ``spec``, keyed
    by (scheme, C, r, t) in the order they are written.

    The keys are built here from the spec, not read from the sweep: every
    scheme in ``Scheme`` order, then C, r and the cache parameter ascending,
    a memory fraction M/N read as t = C * M/N.
    """
    stream = io.StringIO()
    write_sweep_csv(run_sweep(spec), stream)
    header, *lines = stream.getvalue().splitlines(keepends=True)
    assert header == ",".join(CSV_HEADER) + "\n"
    values = sorted(set(spec.cache_params))
    keys = [
        (scheme, C, r, value if spec.param_kind == "t" else value * C)
        for scheme in Scheme if scheme in spec.schemes
        for C in sorted(set(spec.cache_counts))
        for r in sorted(set(spec.access_degrees))
        for value in values
    ]
    assert len(lines) == len(keys)
    return dict(zip(keys, lines))
