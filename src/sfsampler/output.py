"""CSV/JSON emission with round-trip-exact floats and deterministic bytes."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import ConfigError


def format_value(v):
    """Shortest decimal representation that round-trips 64-bit floats."""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit_csv(header, rows, path):
    """Write a rectangular table as RFC-4180-style CSV with \\n line endings."""
    header = list(header)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            row = list(row)
            if len(row) != len(header):
                raise ConfigError(
                    f"ragged table: row of width {len(row)} under header of width {len(header)}"
                )
            writer.writerow([format_value(v) for v in row])


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_samples_csv(samples, path):
    """samples.csv with header chain,dim_0..dim_{d-1}, one row per chain."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    d = samples.shape[1]
    header = ["chain"] + [f"dim_{j}" for j in range(d)]
    rows = ([i, *samples[i]] for i in range(samples.shape[0]))
    emit_csv(header, rows, path)


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


def read_samples_csv(path):
    """Read a samples.csv (chain column optional) into an (n, d) array. A row as wide as
    the header and a finite number in every cell are required; errors count the header
    as row 1."""
    if not os.path.exists(path):
        raise ConfigError(f"cannot read samples file '{path}'")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"samples file '{path}' is empty") from None
        drop = 1 if header and header[0] == "chain" else 0
        data = []
        for row in filter(None, reader):
            where = f"samples file '{path}' row {reader.line_num}"
            if len(row) != len(header):
                raise ConfigError(f"{where} has {len(row)} columns, its header {len(header)}")
            values = [_number(v) for v in row[drop:]]
            for name, cell, value in zip(header[drop:], row[drop:], values):
                if not math.isfinite(value):
                    raise ConfigError(f"{where}, column '{name}': {cell!r} is not a finite number")
            data.append(values)
    if not data:
        raise ConfigError(f"samples file '{path}' has no data rows")
    return np.asarray(data)


def write_histograms(samples, out_dir, bins=64):
    """Per-dimension density histograms (bin_left,bin_right,density)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    paths = []
    for j in range(samples.shape[1]):
        density, edges = np.histogram(samples[:, j], bins=bins, density=True)
        path = os.path.join(out_dir, f"hist_dim{j}.csv")
        emit_csv(
            ["bin_left", "bin_right", "density"],
            zip(edges[:-1], edges[1:], density),
            path,
        )
        paths.append(path)
    return paths
