"""Command-line benchmark tool.

Verbs: sample, convergence, compare, w2, drift-check. Configuration comes
from a JSON file (--config) with command-line flags taking precedence.
Exit codes: 0 ok, 2 config error, 3 numerical failure (divergence or zero
Monte Carlo weight mass), 4 convergence slope outside the acceptance band.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .drift import DRIFT_VARIANTS, make_drift, make_noise_pool
from .errors import ConfigError, DivergenceError, NumericalError, ZeroMassError
from .metrics import (
    default_mode_radius,
    mode_weights,
    sliced_w2,
    strong_error_curve,
    w2_1d,
    w2_exact_smalln,
    W2_EXACT_MAX_N,
)
from .output import (
    emit_csv,
    read_samples_csv,
    write_histograms,
    write_json,
    write_samples_csv,
)
from .rng import RngStream
from .samplers import LangevinConfig, SfsConfig, run_ensemble
from .targets import TargetSpec, target_from_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_GATE = 4

DEFAULT_BAND = (0.85, 1.15)

# integer fields: (inclusive lower bound, exclusive upper bound); seeds key a uint64 Philox stream
INT_FIELDS = {"n_chains": (1, None), "seed": (0, 2**64), "threads": (1, None), "M": (2, None),
              "ref_level": (None, None)}
REAL_FIELDS = ("beta", "h", "gamma", "horizon")


@dataclass
class RunConfig:
    """Fully resolved run configuration (file values overridden by flags)."""

    target: dict = field(default_factory=dict)
    sampler: str = "sfs"
    drift: str = "auto"
    beta: float = 1.0
    h: float = 1e-3
    M: int = 200
    antithetic: bool = False
    gamma: float = 1.0
    horizon: float = 10.0
    n_chains: int = 2000
    seed: int = 42
    threads: int = 1
    out: str = "out"
    full: bool = False
    # convergence
    h_list: list = field(default_factory=list)
    ref_level: int = 12
    band: list = field(default_factory=lambda: list(DEFAULT_BAND))
    # compare
    variants: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _read_json(fh, what):
    try:
        return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path=None, overrides=None) -> RunConfig:
    """Merge a JSON config file with command-line overrides and validate."""
    doc = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file '{path}' does not exist")
        with open(path) as fh:
            doc = _read_json(fh, f"config file '{path}'")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    known = {f.name for f in fields(RunConfig)} | {"target_file"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown config field '{key}'")
    target_file = doc.pop("target_file", None)
    if target_file is not None:
        if "target" in doc:
            raise ConfigError("give either 'target' or 'target_file', not both")
        if not os.path.exists(target_file):
            raise ConfigError(f"target_file '{target_file}' does not exist")
        with open(target_file) as fh:
            doc["target"] = _read_json(fh, f"field 'target_file': '{target_file}'")
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    cfg = RunConfig(**doc)
    _validate(cfg)
    return cfg


def _check_int(name, value, low=None, high=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{name}': expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"field '{name}': must be >= {low}, got {value}")
    if high is not None and value >= high:
        raise ConfigError(f"field '{name}': must be < {high}, got {value}")
    return value


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _check_number(name, value) -> float:
    if not _is_number(value):
        raise ConfigError(f"field '{name}': expected a number, got {value!r}")
    return float(value)


def _check_bool(name, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"field '{name}': expected true or false, got {value!r}")
    return value


def _validate(cfg: RunConfig):
    for name, (low, high) in INT_FIELDS.items():
        _check_int(name, getattr(cfg, name), low, high)
    for name in REAL_FIELDS:
        _check_number(name, getattr(cfg, name))
    for name in ("antithetic", "full"):
        _check_bool(name, getattr(cfg, name))
    if cfg.sampler not in ("sfs", "ula", "uld", "baoab"):
        raise ConfigError(f"field 'sampler': unknown sampler '{cfg.sampler}'")
    if cfg.drift not in ("auto",) + DRIFT_VARIANTS:
        raise ConfigError(f"field 'drift': unknown drift variant '{cfg.drift}'")
    if not (cfg.beta > 0):
        raise ConfigError(f"field 'beta': must be positive, got {cfg.beta}")
    if not (0 < cfg.h <= 1):
        raise ConfigError(f"field 'h': must be in (0, 1], got {cfg.h}")
    steps, band = cfg.h_list, cfg.band
    if not (isinstance(steps, list) and all(_is_number(h) and 0 < h <= 1 for h in steps)):
        raise ConfigError(f"field 'h_list': expected a list of steps in (0, 1], got {steps!r}")
    if not (isinstance(band, list) and len(band) == 2 and all(map(_is_number, band))
            and band[0] < band[1]):
        raise ConfigError(f"field 'band': expected numbers [low, high], low < high, got {band!r}")


def _build_target(cfg: RunConfig) -> TargetSpec:
    if not cfg.target:
        raise ConfigError("field 'target': a target document is required")
    doc = dict(cfg.target)
    full_d = doc.pop("full_d", None)
    if cfg.full and full_d is not None:
        doc["d"] = full_d
    return target_from_dict(doc)


def _resolve_drift(cfg: RunConfig, target: TargetSpec) -> str:
    if cfg.drift != "auto":
        if cfg.drift == "gmm_exact" and target.mixture is None:
            raise ConfigError("field 'drift': gmm_exact needs a Gaussian-mixture target")
        return cfg.drift
    return "gmm_exact" if target.mixture is not None else "stein_mc"


def _sfs_steps(h) -> int:
    n = 1.0 / h
    if abs(n - round(n)) > 1e-9:
        raise ConfigError(f"field 'h': 1/h must be an integer step count, got h={h}")
    return int(round(n))


def _sampler_config(cfg: RunConfig, target: TargetSpec):
    if cfg.sampler == "sfs":
        return SfsConfig(
            n_steps=_sfs_steps(cfg.h),
            beta=cfg.beta,
            drift=_resolve_drift(cfg, target),
            n_mc=cfg.M,
            antithetic=cfg.antithetic,
        )
    return LangevinConfig(
        step=cfg.h, horizon=cfg.horizon, method=cfg.sampler, gamma=cfg.gamma
    )


def cmd_sample(cfg: RunConfig) -> int:
    target = _build_target(cfg)
    scfg = _sampler_config(cfg, target)
    batch = run_ensemble(scfg, target, cfg.n_chains, cfg.seed, threads=cfg.threads)
    os.makedirs(cfg.out, exist_ok=True)
    write_samples_csv(batch.samples, os.path.join(cfg.out, "samples.csv"))
    write_json(batch.meta, os.path.join(cfg.out, "meta.json"))
    write_histograms(batch.samples, cfg.out)
    print(f"wrote {batch.n_chains} chains (d={batch.dim}) to {cfg.out}/samples.csv")
    return EXIT_OK


def cmd_convergence(cfg: RunConfig) -> int:
    target = _build_target(cfg)
    scfg = SfsConfig(
        n_steps=1,  # replaced per level by the curve runner
        beta=cfg.beta,
        drift=_resolve_drift(cfg, target),
        n_mc=cfg.M,
        antithetic=cfg.antithetic,
    )
    report = strong_error_curve(
        target, scfg, cfg.h_list, cfg.ref_level, cfg.n_chains, cfg.seed, threads=cfg.threads
    )
    os.makedirs(cfg.out, exist_ok=True)
    emit_csv(
        ["h", "rmse"],
        zip(report.h_values, report.rmse),
        os.path.join(cfg.out, "rates.csv"),
    )
    write_json(report.to_dict(), os.path.join(cfg.out, "report.json"))
    if report.exact:
        print("all RMSE at roundoff level (constant drift); slope undefined, reported as exact")
        return EXIT_OK
    print(f"fitted slope {report.slope:.4f} (r^2 {report.r_squared:.4f})")
    lo, hi = cfg.band
    if not (lo <= report.slope <= hi):
        print(
            f"ERROR[gate] slope {report.slope:.4f} outside acceptance band [{lo}, {hi}]",
            file=sys.stderr,
        )
        return EXIT_GATE
    return EXIT_OK


def _compare_variants(cfg: RunConfig) -> list:
    """Validated (label, config) per variant; labels name the output files, so must be
    unique and must stay inside the output directory."""
    if cfg.variants:
        source, docs = "variants", cfg.variants
    elif cfg.betas:
        source, docs = "betas", [{"sampler": "sfs", "beta": b} for b in cfg.betas]
    else:
        raise ConfigError("compare needs either 'variants' (>= 2) or a 'betas' list")
    base = cfg.to_dict()
    variants = []
    for doc in docs:
        if not isinstance(doc, dict):
            raise ConfigError(f"field '{source}': each variant must be an object, got {doc!r}")
        unknown = sorted(set(doc) - set(base) - {"label"})
        if unknown:
            raise ConfigError(f"field '{source}': unknown variant field(s) {unknown}")
        sub = RunConfig(**{**base, **{k: v for k, v in doc.items() if k != "label"}})
        _validate(sub)
        label = doc.get("label")
        if label is None:
            label = f"{sub.sampler}_beta{sub.beta:g}"
        if not isinstance(label, str) or not label or any(p in label for p in ("/", "\\", "..")):
            raise ConfigError(
                f"field '{source}': variant label {label!r} must be a nonempty file-name part "
                "without '/', '\\' or '..'"
            )
        variants.append((label, sub))
    labels = [label for label, _ in variants]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise ConfigError(f"field '{source}': duplicate variant labels {duplicates}")
    return variants


def cmd_compare(cfg: RunConfig) -> int:
    target = _build_target(cfg)
    variants = _compare_variants(cfg)
    if len(variants) < 2:
        raise ConfigError("compare needs at least two variants")
    os.makedirs(cfg.out, exist_ok=True)
    batches, labels = [], []
    failures = []
    for label, sub in variants:
        scfg = _sampler_config(sub, target)
        try:
            batch = run_ensemble(scfg, target, sub.n_chains, sub.seed, threads=sub.threads)
        except NumericalError as exc:
            failures.append((label, exc))
            continue
        labels.append(label)
        batches.append(batch)
        write_samples_csv(batch.samples, os.path.join(cfg.out, f"samples_{label}.csv"))
    if failures:
        detail = "; ".join(f"{lab}: {exc}" for lab, exc in failures)
        kinds = {type(exc) for _, exc in failures}
        kind = kinds.pop() if len(kinds) == 1 else NumericalError
        raise kind(f"{len(failures)} of {len(variants)} variants failed ({detail})")

    mode_rows, mode_table = [], {}
    if target.mixture is not None:
        centers = target.mixture.means
        radius = default_mode_radius(target.mixture)
        if centers.shape[0] > 1:
            from scipy.spatial.distance import pdist

            radius = min(radius, 0.45 * float(np.min(pdist(centers))))
        for label, batch in zip(labels, batches):
            report = mode_weights(batch, centers, radius)
            mode_table[label] = report.to_dict()
            for k, w in enumerate(report.weights):
                mode_rows.append([label, k, w])
            mode_rows.append([label, "unassigned", report.unassigned])
        emit_csv(["variant", "mode", "weight"], mode_rows, os.path.join(cfg.out, "modes.csv"))

    w2_rows, w2_table = [], {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = batches[i].samples, batches[j].samples
            if a.shape == b.shape and a.shape[0] <= W2_EXACT_MAX_N:
                val, method = (
                    (w2_1d(a, b), "1d") if a.shape[1] == 1 else (w2_exact_smalln(a, b), "exact")
                )
            else:
                val, method = sliced_w2(a, b), "sliced"
            w2_rows.append([labels[i], labels[j], val, method])
            w2_table[f"{labels[i]}|{labels[j]}"] = val
    emit_csv(["variant_a", "variant_b", "w2", "method"], w2_rows, os.path.join(cfg.out, "w2.csv"))

    summary = {
        "variants": {lab: b.meta for lab, b in zip(labels, batches)},
        "modes": mode_table,
        "w2": w2_table,
    }
    write_json(summary, os.path.join(cfg.out, "summary.json"))
    print(f"compared {len(labels)} variants; outputs in {cfg.out}/")
    return EXIT_OK


def cmd_w2(args) -> int:
    a = read_samples_csv(args.file_a)
    b = read_samples_csv(args.file_b)
    if a.shape[1] != b.shape[1]:
        raise ConfigError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]} columns"
        )
    if args.method == "1d":
        if a.shape[1] != 1:
            raise ConfigError("method '1d' requires one-dimensional samples")
        val = w2_1d(a, b)
    elif args.method == "exact":
        val = w2_exact_smalln(a, b)
    else:
        val = sliced_w2(a, b, n_projections=args.projections)
    print(val)
    print(json.dumps({"w2": val, "method": args.method}))
    return EXIT_OK


def cmd_drift_check(args) -> int:
    if args.input == "-":
        doc = _read_json(sys.stdin, "drift-check input on stdin")
    else:
        if not os.path.exists(args.input):
            raise ConfigError(f"input file '{args.input}' does not exist")
        with open(args.input) as fh:
            doc = _read_json(fh, f"drift-check input '{args.input}'")
    if not isinstance(doc, dict):
        raise ConfigError("drift-check input must be a JSON object")
    for key in ("target", "x", "t"):
        if key not in doc:
            raise ConfigError(f"drift-check input is missing '{key}'")
    target = target_from_dict(doc["target"])
    beta = _check_number("beta", doc.get("beta", 1.0))
    t = _check_number("t", doc["t"])
    if not (0.0 <= t < 1.0):
        raise ConfigError(f"field 't': must be in [0, 1), got {t}")
    x = np.array(doc["x"], dtype=object)  # ragged lists give lists as elements
    if x.ndim < 1 or x.shape[-1] != target.dim or not all(map(_is_number, x.flat)):
        raise ConfigError(f"field 'x': expected points of dimension {target.dim}, got {doc['x']!r}")
    seed = _check_int("seed", doc.get("seed", 42), *INT_FIELDS["seed"])
    n_mc = _check_int("M", doc.get("M", 200), *INT_FIELDS["M"])
    antithetic = _check_bool("antithetic", doc.get("antithetic", False))
    variant = doc.get("variant", "auto")
    if variant == "auto":
        variant = "gmm_exact" if target.mixture is not None else "stein_mc"
    pool = None
    if variant in ("stein_mc", "grad_mc"):
        gen = RngStream(seed, 0).generator()
        pool = make_noise_pool(n_mc, target.dim, gen, antithetic=antithetic)
    n_nodes = _check_int("n_nodes", doc.get("n_nodes", 64))
    drift_fn = make_drift(target, beta, variant, pool=pool, n_nodes=n_nodes)
    value = drift_fn(x.astype(float), t)
    print(json.dumps({"drift": np.asarray(value).tolist(), "variant": variant}))
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="root seed (default 42)")
    parser.add_argument("--chains", type=int, dest="n_chains", help="number of chains")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--threads", type=int, help="worker count (speed only, never results)")
    parser.add_argument("--beta", type=float, help="temperature")
    parser.add_argument("--h", type=float, help="step size")
    parser.add_argument("--M", type=int, help="Monte Carlo pool size")
    parser.add_argument("--sampler", choices=["sfs", "ula", "uld", "baoab"])
    parser.add_argument("--drift", choices=["auto"] + list(DRIFT_VARIANTS))
    parser.add_argument("--full", action="store_true", default=None,
                        help="restore full-scale dimensions on supporting targets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfs-bench",
        description="Diffusion-based sampling benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("sample", "convergence", "compare"):
        p = sub.add_parser(name)
        _add_common(p)
    sub.choices["convergence"].add_argument(
        "--ref-level", type=int, dest="ref_level", help="reference grid level (step 2**-level)"
    )

    p_w2 = sub.add_parser("w2")
    p_w2.add_argument("file_a")
    p_w2.add_argument("file_b")
    p_w2.add_argument("--method", choices=["exact", "sliced", "1d"], default="exact")
    p_w2.add_argument("--projections", type=int, default=128)

    p_drift = sub.add_parser("drift-check")
    p_drift.add_argument("--input", default="-", help="JSON file, or '-' for stdin")
    return parser


_NUMERICAL_TAGS = {DivergenceError: "divergence", ZeroMassError: "zero-mass"}

_CONFIG_COMMANDS = {"sample": cmd_sample, "convergence": cmd_convergence, "compare": cmd_compare}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "w2":
            return cmd_w2(args)
        if args.command == "drift-check":
            return cmd_drift_check(args)
        overrides = {
            key: getattr(args, key, None)
            for key in ("seed", "n_chains", "out", "threads", "beta", "h", "M",
                        "sampler", "drift", "full", "ref_level")
        }
        return _CONFIG_COMMANDS[args.command](load_config(args.config, overrides))
    except ConfigError as exc:
        print(f"ERROR[config] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"ERROR[{_NUMERICAL_TAGS.get(type(exc), 'numerical')}] {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
