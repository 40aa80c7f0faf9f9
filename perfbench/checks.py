"""Output checks: the stored reference, invariants and run-to-run equality.

The reference holds the program's CSV outputs at the default seed, one
gzipped copy per file under ``reference/<workload>/``.  Outputs are compared
column by column, so a later version may add columns or files:

* every reference file and column must exist, with the same row count,
* integer and text columns must match exactly,
* float columns must match within FLOAT_RTOL of the value plus
  FLOAT_ATOL_SCALE times the column's largest magnitude,
* empty cells (an undefined CR_n) must stay empty.

Cells that are not byte-equal are counted as ``ref_cells_changed`` whether
or not they are within the tolerance, so "byte-identical outputs" can be
read from the same run.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import math
import os
import re

FLOAT_RTOL = 1e-6
FLOAT_ATOL_SCALE = 1e-12

_INT = re.compile(r"-?\d+\Z")


def output_files(directory: str) -> list[str]:
    """Relative paths of every file under directory, sorted."""
    found = []
    for root, _, files in os.walk(directory):
        for name in files:
            found.append(os.path.relpath(os.path.join(root, name), directory))
    return sorted(found)


def digest(directory: str) -> str:
    """One hash over the names and bytes of every output file."""
    hasher = hashlib.sha256()
    for relative in output_files(directory):
        hasher.update(relative.encode() + b"\0")
        with open(os.path.join(directory, relative), "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()


def _read_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _column_kind(values: list[str]) -> str:
    present = [value for value in values if value != ""]
    if present and all(_INT.match(value) for value in present):
        return "int"
    try:
        for value in present:
            float(value)
    except ValueError:
        return "text"
    return "float"


def _compare_table(label: str, reference: str, output: str,
                   errors: list[str]) -> int:
    """Append mismatches to errors; return the count of changed cells."""
    ref_header, ref_rows = _read_table(reference)
    out_header, out_rows = _read_table(output)
    if len(out_rows) != len(ref_rows):
        errors.append(f"{label}: {len(out_rows)} rows, reference has "
                      f"{len(ref_rows)}")
        return sum(len(row) for row in ref_rows)
    changed = 0
    for ref_index, column in enumerate(ref_header):
        if column not in out_header:
            errors.append(f"{label}: column {column!r} is missing")
            changed += len(ref_rows)
            continue
        out_index = out_header.index(column)
        expected = [row[ref_index] for row in ref_rows]
        actual = [row[out_index] for row in out_rows]
        kind = _column_kind(expected)
        scale = max((abs(float(value)) for value in expected if value),
                    default=0.0) if kind == "float" else 0.0
        bad = 0
        for want, got in zip(expected, actual):
            if want == got:
                continue
            changed += 1
            if kind != "float" or want == "" or got == "":
                bad += 1
                continue
            try:
                got_value = float(got)
            except ValueError:
                bad += 1
                continue
            want_value = float(want)
            limit = (FLOAT_RTOL * max(abs(want_value), abs(got_value))
                     + FLOAT_ATOL_SCALE * scale)
            if not abs(got_value - want_value) <= limit:
                bad += 1
        if bad:
            errors.append(f"{label}: {bad} {kind} cells of column "
                          f"{column!r} differ from the reference")
    return changed


def compare_reference(output_dir: str, reference_dir: str,
                      ) -> tuple[int, list[str]]:
    """Changed-cell count and the list of mismatches (empty when correct)."""
    errors: list[str] = []
    changed = 0
    references = output_files(reference_dir)
    if not references:
        return 0, [f"no reference files in {reference_dir}"]
    for relative in references:
        target = relative[:-len(".gz")]
        path = os.path.join(output_dir, target)
        if not os.path.exists(path):
            errors.append(f"{target}: missing from the outputs")
            continue
        with gzip.open(os.path.join(reference_dir, relative), "rt",
                       encoding="utf-8", newline="") as handle:
            reference = handle.read()
        with open(path, encoding="utf-8", newline="") as handle:
            output = handle.read()
        changed += _compare_table(target, reference, output, errors)
    return changed, errors


def write_reference(output_dir: str, reference_dir: str) -> int:
    """Store every output file gzipped (fixed mtime); returns the count."""
    files = output_files(output_dir)
    for relative in files:
        target = os.path.join(reference_dir, relative + ".gz")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(os.path.join(output_dir, relative), "rb") as source:
            data = source.read()
        with open(target, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                               filename="") as handle:
                handle.write(data)
    return len(files)


def invariants(output_dir: str, max_iters: int) -> list[str]:
    """Checks for any seed: finite numbers and 1 <= K_n < max_iters.

    Every float cell of every CSV must be finite; every ``K_n`` (iterations
    of a time step) must be at least 1 and below the iteration cap, which
    the loop reaches only when it did not converge.
    """
    errors: list[str] = []
    files = [name for name in output_files(output_dir)
             if name.endswith(".csv")]
    if not files:
        return [f"no CSV outputs in {output_dir}"]
    for relative in files:
        with open(os.path.join(output_dir, relative), encoding="utf-8",
                  newline="") as handle:
            header, rows = _read_table(handle.read())
        if not rows:
            errors.append(f"{relative}: no rows")
        for index, column in enumerate(header):
            values = [row[index] for row in rows]
            kind = _column_kind(values)
            if kind == "float" and not all(
                    math.isfinite(float(value)) for value in values if value):
                errors.append(f"{relative}: non-finite {column!r}")
            if column == "K_n" and not all(
                    1 <= int(value) < max_iters for value in values):
                errors.append(f"{relative}: K_n outside [1, {max_iters})")
    return errors
