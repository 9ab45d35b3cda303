"""Running one experiment as a batch, its average row, and table
rendering."""

from repro.harness.parallel import PointRunner
from repro.harness.runner import DEFAULT_BUDGET
from repro.workloads import WORKLOAD_NAMES


def run_experiment(points, table, workloads=None, budget=DEFAULT_BUDGET,
                   runner=None):
    """Run an experiment module's ``points(workloads, budget)`` as one
    batch; returns its ``table(workloads, summaries)``, an
    :class:`ExperimentResult` carrying the batch's report."""
    workloads = workloads if workloads is not None else WORKLOAD_NAMES
    runner = runner if runner is not None else PointRunner()
    result = table(workloads, runner.run(points(workloads, budget)))
    result.run_report = runner.last_report
    return result


def average_row(rows, summed=()):
    """The ``Avg.`` row: the mean of every numeric column of ``rows``,
    except the ``summed`` column indexes, which hold totals."""
    avg = ["Avg."]
    for col in range(1, len(rows[0])):
        total = sum(row[col] for row in rows)
        avg.append(total if col in summed else total / len(rows))
    return avg


def format_table(headers, rows, title=None):
    """Render a list-of-lists as an aligned text table."""
    columns = len(headers)
    texts = [[_cell(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in texts:
        for index in range(columns):
            widths[index] = max(widths[index], len(row[index]))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in texts:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class ExperimentResult:
    """Headers + rows + provenance for one experiment."""

    def __init__(self, name, headers, rows, notes=None):
        self.name = name
        self.headers = headers
        self._rows = rows
        self.notes = notes or []
        #: Per-run timing / cache-hit counters from the PointRunner batch
        #: that produced the rows (a plain dict, set by
        #: :func:`run_experiment`), or None.  Deliberately *not* part of
        #: :meth:`render`: the rendered table must stay byte-identical
        #: across serial, parallel and cached executions.
        self.run_report = None

    def rows(self):
        return list(self._rows)

    def row_for(self, workload_name):
        for row in self._rows:
            if row[0] == workload_name:
                return row
        raise KeyError(workload_name)

    def render(self):
        text = format_table(self.headers, self._rows, title=self.name)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {note}"
                                     for note in self.notes)
        return text

    def __repr__(self):
        return f"ExperimentResult({self.name}, {len(self._rows)} rows)"
