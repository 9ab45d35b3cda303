"""Output checks: experiment rows and architected results.

Stdlib-only.  References live in ``references.json``; see
``make_references.py`` for how they were produced.
"""

import math

#: Table cells are compared exactly, except floats, which may differ by
#: this relative amount (a reordered sum changes the last bits).
REL_TOL = 1e-9

#: experiment -> columns whose "Avg." cell is a sum, not a mean.
SUMMED_COLUMNS = {"overhead": (5, 6)}


def same_cell(actual, expected):
    """Whether one table cell matches its reference."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or \
                not isinstance(expected, (int, float)):
            return False
        return math.isclose(actual, expected, rel_tol=REL_TOL,
                            abs_tol=1e-12)
    return actual == expected


def expected_rows(experiment, programs, references):
    """The reference rows for ``programs``, followed by their "Avg." row."""
    table = references["rows"][experiment]
    rows = [table[name] for name in programs]
    summed = SUMMED_COLUMNS.get(experiment, ())
    average = ["Avg."]
    for column in range(1, len(rows[0])):
        total = sum(row[column] for row in rows)
        average.append(total if column in summed else total / len(rows))
    return rows + [average]


def row_mismatches(experiment, programs, rows, references):
    """Labels (program name or "Avg.") of rows that differ from the
    reference, with a one-line reason each."""
    expected = expected_rows(experiment, programs, references)
    problems = []
    if len(rows) != len(expected):
        return [("*", f"{experiment}: {len(rows)} rows, expected "
                      f"{len(expected)}")]
    for row, reference in zip(rows, expected):
        label = reference[0]
        if len(row) != len(reference) or not all(
                same_cell(a, b) for a, b in zip(row, reference)):
            problems.append((label, f"{experiment} row {label}: {row!r} "
                                    f"!= {reference!r}"))
    return problems


def arch_mismatch(summary, references):
    """Why a VM point's architected result differs from the original-ISA
    interpreter's, or None when it matches or is not comparable.

    Only a point whose program halted within the budget is comparable;
    a program the interpreter halts within the budget must halt under
    the VM too.
    """
    program = summary["workload"]
    reference = references["arch"][program]
    if not summary.get("halted"):
        if reference["halted"]:
            return f"{program}: VM did not halt, interpreter did"
        return None
    if not reference["halted"]:
        return f"{program}: VM halted, interpreter did not"
    for key in ("pc", "regs"):
        if summary["state"][key] != reference[key]:
            return f"{program}: architected {key} differs"
    if summary["console"] != reference["console"]:
        return f"{program}: console output differs"
    return None
