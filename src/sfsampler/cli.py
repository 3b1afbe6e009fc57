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
from dataclasses import dataclass, field, replace

import numpy as np

from .drift import make_drift, make_noise_pool
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
from .schema import CONFIG_FILE, DRIFT_CHECK, DRIFT_VARIANTS, RUN, SAMPLERS, TARGETS, VARIANT, check
from .targets import TargetSpec, target_from_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_GATE = 4

DEFAULT_BAND = (0.85, 1.15)


@dataclass
class RunConfig:
    """Fully resolved run configuration (file values overridden by flags); the type and
    range of every field are in `schema.RUN`."""

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


def _read_json(fh, what) -> dict:
    try:
        doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    return doc


def load_config(path=None, overrides=None) -> RunConfig:
    """Merge a JSON config file with command-line overrides and check the fields."""
    doc = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file '{path}' does not exist")
        with open(path) as fh:
            doc = _read_json(fh, f"config file '{path}'")
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    check(CONFIG_FILE, doc, "field")
    target_file = doc.pop("target_file", None)
    if target_file is not None:
        if "target" in doc:
            raise ConfigError("give either 'target' or 'target_file', not both")
        if not os.path.exists(target_file):
            raise ConfigError(f"target_file '{target_file}' does not exist")
        with open(target_file) as fh:
            doc["target"] = _read_json(fh, f"field 'target_file': '{target_file}'")
    return RunConfig(**doc)


def _build_target(cfg: RunConfig) -> TargetSpec:
    if not cfg.target:
        raise ConfigError("field 'target': a target document is required")
    doc = dict(cfg.target)
    kind = doc.get("kind")
    # the d of a full-scale run, checked like d whether or not --full is given; a bad kind
    # is left for target_from_dict to name
    if "full_d" in doc and isinstance(kind, str) and kind in TARGETS:
        full_d = doc.pop("full_d")
        if "d" not in TARGETS[kind]:
            raise ConfigError(f"target field 'full_d': unknown for kind {kind!r}, which has no 'd'")
        check({"full_d": TARGETS[kind]["d"]}, {"full_d": full_d}, "target field")
        if cfg.full:
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
    if cfg.sampler != "sfs":
        raise ConfigError(f"field 'sampler': convergence runs 'sfs' only, got {cfg.sampler!r}")
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
    variants = []
    for doc in docs:
        check(VARIANT, doc, f"field '{source}': field")
        sub = replace(cfg, **{k: v for k, v in doc.items() if k != "label"})
        label = doc.get("label", f"{sub.sampler}_beta{sub.beta:g}")
        if any(p in label for p in ("/", "\\", "..")):
            raise ConfigError(f"field '{source}': variant label {label!r} must be a file-name "
                              "part without '/', '\\' or '..'")
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
    check(DRIFT_CHECK, doc, "field")
    target = target_from_dict(doc["target"])
    x = np.asarray(doc["x"], dtype=float)
    if x.shape[-1] != target.dim:
        raise ConfigError(f"field 'x': expected points of dimension {target.dim}, got {doc['x']!r}")
    variant = doc.get("variant", "auto")
    if variant == "auto":
        variant = "gmm_exact" if target.mixture is not None else "stein_mc"
    pool = None
    if variant in ("stein_mc", "grad_mc"):
        gen = RngStream(doc.get("seed", 42), 0).generator()
        pool = make_noise_pool(doc.get("M", 200), target.dim, gen,
                               antithetic=doc.get("antithetic", False))
    drift_fn = make_drift(target, doc.get("beta", 1.0), variant, pool=pool,
                          n_nodes=doc.get("n_nodes", 64))
    value = drift_fn(x, doc["t"])
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
    parser.add_argument("--sampler", choices=SAMPLERS)
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
        overrides = {key: getattr(args, key, None) for key in RUN}  # the flags the verb has
        return _CONFIG_COMMANDS[args.command](load_config(args.config, overrides))
    except ConfigError as exc:
        print(f"ERROR[config] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an input that asks for more memory than there is
        print(f"ERROR[config] out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"ERROR[{_NUMERICAL_TAGS.get(type(exc), 'numerical')}] {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
