"""The input table: the type and range of every field a document from outside may hold.

One table per document: `RUN` for a run configuration (`CONFIG_FILE` is its file form,
`VARIANT` a `compare` variant), `DRIFT_CHECK` for the `drift-check` input, and
`TARGETS[kind]` for each built-in target's parameters. `check` applies a table before
any sampling; values are checked, never rewritten. Checks that tie fields together
(weights summing to 1, one mean per weight, 1/h an integer, ...) stay with their users.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError
from .numerics import MAX_GH_NODES
from .rng import MAX_LADDER_LEVEL

DRIFT_VARIANTS = ("gmm_exact", "stein_mc", "grad_mc", "quadrature")
SAMPLERS = ("sfs", "ula", "uld", "baoab")


@dataclass(frozen=True)
class Field:
    """One table entry: the values it `accepts`, and what it `expects` in words."""

    accepts: Callable
    expects: str
    required: bool = False


def _is_real(value) -> bool:
    """A real number or a (nested) sequence or array of them: no bool, str or None anywhere."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(map(_is_real, value))
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def real(span="(-inf, inf)", rank=(0, 0), rule=None) -> Field:
    """Finite reals in `span`, e.g. "(0, 1]": one number, or nested lists or an array whose
    rank lies in `rank` and which satisfies `rule`, a (description, predicate) pair."""
    low, high = (float(end) for end in span[1:-1].split(","))

    def accepts(value):
        if not _is_real(value):
            return False
        try:
            a = np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged nesting, or an int beyond the float range
            return False
        return bool(rank[0] <= a.ndim <= rank[1] and np.all(np.isfinite(a))
                    and np.all(a > low if span[0] == "(" else a >= low)
                    and np.all(a < high if span[-1] == ")" else a <= high)
                    and (rule is None or rule[1](a)))

    what = {(0, 0): "a finite number", (1, 1): "a list of finite numbers"}.get(
        rank, f"finite numbers in lists nested {rank[0]} to {rank[1]} deep")
    return Field(accepts, what + (f" in {span}" if span != "(-inf, inf)" else "")
                 + (f", {rule[0]}" if rule else ""))


def integer(low, high=None) -> Field:
    return Field(lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                 and low <= v and (high is None or v <= high),
                 f"an integer >= {low}" if high is None else f"an integer in [{low}, {high}]")


def choice(options) -> Field:
    return Field(lambda v: isinstance(v, str) and v in options, f"one of {', '.join(options)}")


def each(entry) -> Field:
    return Field(lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(entry.accepts, v)),
                 f"a list, each entry {entry.expects}")


def required(entry) -> Field:
    return replace(entry, required=True)


def check(table: dict, doc: dict, where: str):
    """Check every field of `doc` against `table`; a ConfigError names the first bad one
    as "{where} '{name}'", e.g. "field 'beta'" or "target field 'r0'"."""
    for name, entry in table.items():
        if entry.required and name not in doc:
            raise ConfigError(f"{where} '{name}': missing")
    for name, value in doc.items():
        if name not in table:
            raise ConfigError(f"{where} '{name}': unknown, expected one of {', '.join(table)}")
        if not table[name].accepts(value):
            raise ConfigError(f"{where} '{name}': expected {table[name].expects}, "
                              f"got {reprlib.repr(value)}")


BOOL = Field(lambda v: isinstance(v, bool), "true or false")
OBJECT = Field(lambda v: isinstance(v, dict), "an object")
TEXT = Field(lambda v: isinstance(v, str) and v != "", "a nonempty string")
POSITIVE = real("(0, inf)")
SCALE = real("[1e-150, inf)")   # a standard deviation whose 1/sigma^2 is finite
SEED = integer(0, 2**64 - 1)   # seeds key a uint64 Philox stream
NONEMPTY = ("nonempty", lambda a: a.size > 0)
WEIGHTS = real("[0, inf)", (1, 1), NONEMPTY)
RHO = real("[0, 1)")

RUN = {
    "target": OBJECT,
    "sampler": choice(SAMPLERS),
    "drift": choice(("auto",) + DRIFT_VARIANTS),
    "beta": POSITIVE,
    "h": real("(0, 1]"),
    "M": integer(2),
    "antithetic": BOOL,
    "gamma": POSITIVE,
    "horizon": POSITIVE,
    "n_chains": integer(1),
    "seed": SEED,
    "threads": integer(1),
    "out": TEXT,
    "full": BOOL,
    "h_list": real("(0, 1]", (1, 1)),
    "ref_level": integer(0, MAX_LADDER_LEVEL),
    "band": real(rank=(1, 1), rule=("[low, high] with low < high",
                                    lambda a: a.shape == (2,) and a[0] < a[1])),
    "variants": each(OBJECT),
    "betas": real("(0, inf)", (1, 1)),
}
CONFIG_FILE = {**RUN, "target_file": TEXT}
# the fields a compare variant may change; the rest are the run's alone
VARIANT = {"label": TEXT, **{name: RUN[name] for name in (
    "sampler", "drift", "beta", "h", "M", "antithetic", "gamma", "horizon", "n_chains", "seed",
    "threads")}}

DRIFT_CHECK = {
    "target": required(OBJECT),
    "x": required(real(rank=(1, 32))),
    "t": required(real("[0, 1)")),
    "beta": POSITIVE,
    "variant": choice(("auto",) + DRIFT_VARIANTS),
    "M": integer(2),
    "seed": SEED,
    "antithetic": BOOL,
    "n_nodes": integer(1, MAX_GH_NODES),
}

TARGETS = {
    "gaussian_mixture": {
        "weights": required(WEIGHTS),
        "means": required(real(rank=(1, 2), rule=NONEMPTY)),
        "covs": required(each(real(rank=(0, 2), rule=NONEMPTY))),  # variances, diagonals, matrices
        "rho": RHO,
    },
    "two_mode_gmm": {"d": required(integer(1)), "separation": real(), "variance": POSITIVE,
                     "weights": WEIGHTS, "rho": RHO},
    "ring": {"r0": real(), "sigma": SCALE, "rho": RHO},
    "funnel": {"alpha": POSITIVE, "rho": RHO},
    "example64": {"rho": RHO},
    "bayes_ridge": {"y": required(real(rank=(0, 1), rule=NONEMPTY)), "sigma1": SCALE,
                    "sigma2": SCALE, "rho": RHO},
}
