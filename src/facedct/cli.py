"""Command-line front door.

Subcommands: enroll, evaluate, identify, det-export, fuse-eval, sigsize,
synth-data.  Experiments are driven by a JSON config file; flags override
config fields (see :func:`load_config`).  Exit codes are stable:
0 success, 1 validation error, 2 data error, 3 internal error.  An input
that cannot be read or decoded exits 1 when it is the config and 2 when it
is a manifest, image, score or gallery file; an output that cannot be
written exits 1.  Each message names the file.

Each command needs only the sample indices it reads: enroll the training
indices, evaluate the test indices, fuse-eval both.  A subject with fewer
samples than the largest index a command needs is a data error naming it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, ValidationError, read_bytes, write_atomic
from .features import DEFAULT_DIM
from .fusion import apply_fusion, parse_fusion_spec, run_channel_pipeline
from .gallery import SplitSpec, load_gallery, save_gallery, select_samples
from .imageio import CHANNELS, MAX_WINDOW, load_manifest, write_json
from .matching import (
    METRICS,
    build_score_tensor,
    load_scores_csv,
    save_scores_csv,
    subject_distances,
)
from .pipeline import (
    DEFAULT_WINDOW,
    enroll_subjects,
    extract_subject_features,
    featurize_image,
    summarize_tensor,
)
from .significance import (
    SignificanceParams,
    min_resolvable_error_rate,
    required_n,
    simplified_n,
)
from .synth import PLACEMENTS, SynthSpec, generate_dataset
from .verification import (
    det_curve,
    eer as eer_of,
    render_det_svg,
    save_det_csv,
    split_intra_inter,
    trial_counts,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through our exit-code contract (1, not 2)
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@dataclass
class ExperimentConfig:
    """Aggregated experiment parameters; :func:`load_config` gives the JSON
    schema."""

    manifest: Path
    train_indices: tuple[int, ...] = (1, 2, 3, 4, 5)
    test_indices: tuple[int, ...] = (6, 7, 8, 9, 10)
    window: int = DEFAULT_WINDOW
    dim: int = DEFAULT_DIM
    metrics: tuple[str, ...] = ("mse",)
    channel: str = "gray"
    c_miss: float = 1.0
    c_fa: float = 1.0
    output_dir: Path | None = None

    def split(self) -> SplitSpec:
        return SplitSpec.from_iterables(self.train_indices, self.test_indices)

    def validate(self) -> None:
        # a manifest that exists but cannot be read is a data error (exit 2)
        if not self.manifest.exists():
            raise ValidationError(f"manifest file does not exist: {self.manifest}")
        if not 1 <= self.window <= MAX_WINDOW:
            raise ValidationError(f"'window' {self.window} is outside [1, {MAX_WINDOW}]")
        if not 1 <= self.dim <= self.window * self.window:
            raise ValidationError(
                f"dim must be in [1, window^2] = [1, {self.window * self.window}]"
            )
        if not self.metrics:
            raise ValidationError(f"config field 'metrics' names no metric (choose from {METRICS})")
        for i, m in enumerate(self.metrics):
            if m not in METRICS:
                raise ValidationError(f"unknown metric {m!r} (choose from {METRICS})")
            if m in self.metrics[:i]:
                raise ValidationError(f"'metrics' lists {m!r} more than once")
        if self.channel not in CHANNELS:
            raise ValidationError(f"unknown channel {self.channel!r} (choose from {CHANNELS})")
        if self.c_miss < 0 or self.c_fa < 0:
            raise ValidationError("DCF costs must be >= 0")
        try:
            self.split()
        except ValueError as exc:
            raise ValidationError(f"bad split: {exc}") from exc

    def payload(self) -> dict:
        return {
            "manifest": str(self.manifest),
            "train_indices": list(self.train_indices),
            "test_indices": list(self.test_indices),
            "window": self.window,
            "dim": self.dim,
            "metrics": list(self.metrics),
            "channel": self.channel,
            "dcf": {"c_miss": self.c_miss, "c_fa": self.c_fa},
            "output_dir": str(self.output_dir) if self.output_dir else None,
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _as_indices(value, name: str) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    try:
        return tuple(int(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a list of integers: {exc}") from exc


def _convert(convert, value, name: str):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config field {name!r}: {exc}") from None


def load_config(path: str | Path, overrides: argparse.Namespace) -> ExperimentConfig:
    """Read the JSON config, apply flag overrides, validate.

    The config is a JSON object with these fields; any other field is an
    error, and so is a field of the wrong type:

    - ``manifest`` (required): path of the dataset manifest, relative to
      the config's directory.
    - ``train_indices``, ``test_indices``: disjoint, non-empty lists of
      1-based sample indices, or comma-separated strings of them; default
      ``[1, 2, 3, 4, 5]`` and ``[6, 7, 8, 9, 10]``.
    - ``window``: integer side of the analysis window in
      ``[1, MAX_WINDOW]``; default 64.
    - ``dim``: integer count of DCT coefficients kept, in ``[1, window²]``;
      default 100.
    - ``metrics``: list of distinct metric names from ``METRICS``, or a
      comma-separated string of them; default ``"mse"``.  ``metric`` is an
      alias, read when ``metrics`` is absent.
    - ``channel``: one of ``CHANNELS``; default ``"gray"``.
    - ``dcf``: object with the costs ``c_miss`` and ``c_fa``, numbers
      >= 0; each defaults to 1.0.
    - ``output_dir``: results directory of ``evaluate`` and ``fuse-eval``,
      relative to the config's directory; default ``results`` in the
      working directory.

    Names of metrics and channels are case-insensitive.  The flags
    ``--window``, ``--dim``, ``--channel``, ``--train-indices`` and
    ``--test-indices`` replace the field of the same name, ``--metric``
    (repeatable) replaces ``metrics``, and ``--out`` replaces
    ``output_dir``.  A config that cannot be read or is not JSON is a
    ValidationError naming it.
    """
    path = Path(path)
    try:
        raw = json.loads(read_bytes(path, ValidationError))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")

    known = {
        "manifest", "train_indices", "test_indices", "window", "dim",
        "metric", "metrics", "channel", "dcf", "output_dir",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")

    base = path.parent

    def resolve(name: str) -> Path:
        p = _convert(Path, raw[name], name)
        return p if p.is_absolute() else base / p

    if "manifest" not in raw:
        raise ValidationError("config is missing the 'manifest' field")
    metrics_field = "metrics" if "metrics" in raw else "metric"
    metrics = raw.get(metrics_field, "mse")
    if isinstance(metrics, str):
        metrics = [m for m in metrics.split(",") if m.strip()]
    elif not isinstance(metrics, list):
        raise ValidationError(
            f"config field {metrics_field!r} must be a list or a comma-separated string"
        )
    dcf_raw = raw.get("dcf", {})
    if not isinstance(dcf_raw, dict):
        raise ValidationError("config field 'dcf' must be an object with c_miss and c_fa")

    cfg = ExperimentConfig(
        manifest=resolve("manifest"),
        train_indices=_as_indices(raw.get("train_indices", [1, 2, 3, 4, 5]), "train_indices"),
        test_indices=_as_indices(raw.get("test_indices", [6, 7, 8, 9, 10]), "test_indices"),
        window=_convert(int, raw.get("window", DEFAULT_WINDOW), "window"),
        dim=_convert(int, raw.get("dim", DEFAULT_DIM), "dim"),
        metrics=tuple(str(m).lower() for m in metrics),
        channel=str(raw.get("channel", "gray")).lower(),
        c_miss=_convert(float, dcf_raw.get("c_miss", 1.0), "dcf.c_miss"),
        c_fa=_convert(float, dcf_raw.get("c_fa", 1.0), "dcf.c_fa"),
        output_dir=resolve("output_dir") if raw.get("output_dir") else None,
    )

    for name in ("window", "dim"):
        value = getattr(overrides, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(overrides, "channel", None):
        cfg.channel = overrides.channel.lower()
    if getattr(overrides, "metric", None):
        cfg.metrics = tuple(m.lower() for m in overrides.metric)
    if getattr(overrides, "train_indices", None):
        cfg.train_indices = _as_indices(overrides.train_indices, "train_indices")
    if getattr(overrides, "test_indices", None):
        cfg.test_indices = _as_indices(overrides.test_indices, "test_indices")
    cfg.validate()
    return cfg


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "tool_version": __version__,
        "config_sha256": cfg.sha256(),
        "config": cfg.payload(),
    }


def cmd_enroll(args) -> int:
    """Enroll the training samples; the test indices need not exist."""
    cfg = load_config(args.config, args)
    out = Path(args.out)
    train = select_samples(load_manifest(cfg.manifest), cfg.split().train_indices)
    features = extract_subject_features(train, (cfg.channel,), cfg.dim, cfg.window)
    gallery = enroll_subjects(features[cfg.channel])
    meta = {
        "window": cfg.window,
        "tool_version": __version__,
        "config_sha256": cfg.sha256(),
    }
    save_gallery(gallery, out, meta=meta)
    write_json(out / "provenance.json", _provenance(cfg))
    print(
        f"enrolled {gallery.n_templates} templates for {gallery.n_subjects} subjects "
        f"(dim={gallery.feature_dim}, channel={gallery.channel}) -> {out}"
    )
    return EXIT_OK


def _summary_row(summary) -> dict:
    return {
        "metric": summary.metric,
        "identification_rate": summary.identification.rate,
        "successes": summary.identification.successes,
        "errors": summary.identification.errors,
        "eer": summary.eer,
        "min_dcf": summary.min_dcf,
        "min_dcf_threshold": summary.min_dcf_threshold,
    }


def cmd_evaluate(args) -> int:
    """Score the test samples; the training indices need not exist."""
    cfg = load_config(args.config, args)
    gallery, meta = load_gallery(args.gallery)
    window = meta.get("window", cfg.window)
    out = Path(args.out) if args.out else (cfg.output_dir or Path("results"))

    test = select_samples(load_manifest(cfg.manifest), cfg.split().test_indices)
    features = extract_subject_features(test, (gallery.channel,), gallery.feature_dim, window)
    probes = features[gallery.channel]

    single = len(cfg.metrics) == 1
    rows = []
    for metric in cfg.metrics:
        tensor = build_score_tensor(probes, gallery, metric)
        trials = split_intra_inter(tensor)
        summary = summarize_tensor(tensor, cfg.c_miss, cfg.c_fa, trials=trials)
        rows.append(_summary_row(summary))

        tag = "" if single else f"_{metric}"
        save_scores_csv(tensor, out / f"scores{tag}.csv")
        svg = out / f"det{tag}.svg" if args.svg else None
        _write_det(trials, out / f"det{tag}.csv", svg, summary.eer)
        print(
            f"[{metric}] identification rate {summary.identification.rate:.4f} "
            f"({summary.identification.successes}/{summary.identification.trials}), "
            f"EER {summary.eer:.4f}, min DCF {summary.min_dcf}"
        )

    counts = trial_counts(
        len(tensor.probe_subjects), len(tensor.gallery_subjects), tensor.n_trials
    )
    results = {
        **_provenance(cfg),
        "window": window,
        "trial_counts": {
            "genuine": counts.genuine,
            "impostor": counts.impostor,
            "total": counts.total,
        },
        "min_resolvable_error_rate_simplified": min_resolvable_error_rate(counts.total),
        "rows": rows,
    }
    write_json(out / "results.json", results)
    print(f"results -> {out / 'results.json'}")
    return EXIT_OK


def cmd_identify(args) -> int:
    """Nearest enrolled subject of one probe image.

    Subjects are in lexicographic order and argmin takes the first minimum,
    so a tie goes to the lexicographically first subject.  The distance is
    the probe's ``scores.csv`` cell, bit for bit.
    """
    gallery, meta = load_gallery(args.gallery)
    window = meta.get("window", DEFAULT_WINDOW)
    metric = args.metric
    (probe,) = featurize_image(args.image, (gallery.channel,), gallery.feature_dim, window)
    dists = subject_distances(probe.coeffs, gallery, metric)
    best = int(np.argmin(dists))
    print(
        json.dumps(
            {"subject": gallery.subject_ids[best], "distance": float(dists[best]), "metric": metric}
        )
    )
    return EXIT_OK


def _write_det(trials, csv_path, svg_path, eer_value: float | None) -> int:
    """Write the DET staircase of ``trials`` to ``csv_path`` and, when
    ``svg_path`` is given, its plot with ``eer_value`` marked; returns the
    number of points."""
    points = det_curve(trials)
    save_det_csv(points, csv_path)
    if svg_path:
        write_atomic(svg_path, render_det_svg(points, eer_value).encode())
    return len(points)


def cmd_det_export(args) -> int:
    trials = split_intra_inter(load_scores_csv(args.scores))
    n_points = _write_det(trials, args.out, args.svg, eer_of(trials) if args.svg else None)
    print(f"det curve ({n_points} points) -> {args.out}")
    return EXIT_OK


_CHANNEL_ROW_ORDER = {"r": 0, "g": 1, "b": 2, "y": 3, "gray": 4}


def cmd_fuse_eval(args) -> int:
    cfg = load_config(args.config, args)
    # fusion_results.csv has no metric column, so it holds one metric's rows
    if len(cfg.metrics) != 1:
        raise ValidationError(
            f"fuse-eval scores one metric, got {len(cfg.metrics)}: {', '.join(cfg.metrics)}"
        )
    specs = [parse_fusion_spec(s) for s in args.fusion]
    out = Path(args.out) if args.out else (cfg.output_dir or Path("results"))

    channels = {c for spec in specs for c in spec.channels}
    if args.include_y:
        channels.add("y")
    channels = tuple(sorted(channels, key=lambda c: _CHANNEL_ROW_ORDER.get(c, 9)))
    runs = run_channel_pipeline(
        load_manifest(cfg.manifest), cfg.split(), channels, cfg.metrics[0],
        cfg.dim, cfg.window, cfg.c_miss, cfg.c_fa,
    )
    table = [(channel.upper(), run.summary) for channel, run in runs.items()]
    tensors = {c: r.tensor for c, r in runs.items()}
    for spec in specs:
        fused = apply_fusion(spec, tensors)
        table.append((f"score-fusion:{spec.label()}", summarize_tensor(fused, cfg.c_miss, cfg.c_fa)))

    csv_path = out / "fusion_results.csv"
    # no label holds a comma, quote or newline, so csv.writer would quote none
    lines = ["input_signal,identification_rate,eer,min_dcf_ptrue_0.5,min_dcf_ptrue_empirical"]
    for label, summary in table:
        lines.append(
            f"{label},{summary.identification.rate:.6f},{summary.eer:.6f},"
            f"{summary.min_dcf['0.5']:.6f},{summary.min_dcf['empirical']:.6f}"
        )
    write_atomic(csv_path, ("\n".join(lines) + "\n").encode())
    for label, summary in table:
        print(
            f"{label}: rate {summary.identification.rate:.4f}, eer {summary.eer:.4f}, "
            f"min DCF@0.5 {summary.min_dcf['0.5']:.4f}"
        )
    print(f"fusion table -> {csv_path}")
    return EXIT_OK


def cmd_sigsize(args) -> int:
    if (args.p is None) == (args.n is None):
        raise _UsageError("sigsize: provide exactly one of --p or --n")
    if not args.iid:
        print(
            "note: the sizing bound assumes i.i.d. errors; correlated samples "
            "need a larger N (pass --iid to silence this)",
            file=sys.stderr,
        )
    if args.p is not None:
        params = SignificanceParams(args.alpha, args.beta, args.p)
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "p": args.p,
            "required_n_exact": required_n(params),
            "required_n_simplified": simplified_n(args.p),
        }
        print(
            f"error rate {args.p:g} needs N >= {payload['required_n_exact']} "
            f"(exact rule) / {payload['required_n_simplified']} (simplified 100/P rule)"
        )
    else:
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "n": args.n,
            "min_error_rate_exact": min_resolvable_error_rate(args.n, "exact", args.alpha, args.beta),
            "min_error_rate_simplified": min_resolvable_error_rate(args.n, "simplified"),
        }
        print(
            f"N = {args.n} resolves error rates down to "
            f"{payload['min_error_rate_simplified']:.6g} (simplified) / "
            f"{payload['min_error_rate_exact']:.6g} (exact)"
        )
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_synth_data(args) -> int:
    try:
        spec = SynthSpec(
            subjects=args.subjects,
            samples=args.samples,
            noise=args.noise,
            seed=args.seed,
            width=args.width,
            height=args.height,
            placement=args.placement,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    manifest_path = generate_dataset(spec, args.out)
    print(f"synthetic dataset ({spec.subjects} subjects x {spec.samples} samples) -> {manifest_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facedct", description=__doc__)
    parser.add_argument("--version", action="version", version=f"facedct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--window", type=int, help="canonical analysis window side")
        p.add_argument("--dim", type=int, help="retained DCT coefficients per face")
        p.add_argument("--channel", choices=CHANNELS, help="input signal")
        p.add_argument("--metric", action="append", choices=METRICS, help="distance metric (repeatable)")
        p.add_argument("--train-indices", dest="train_indices", help="comma-separated 1-based sample indices")
        p.add_argument("--test-indices", dest="test_indices", help="comma-separated 1-based sample indices")

    p = sub.add_parser("enroll", help="build and persist a gallery from the training split")
    add_config_flags(p)
    p.add_argument("--out", required=True, help="gallery output directory")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("evaluate", help="score the test split against a gallery")
    add_config_flags(p)
    p.add_argument("--gallery", required=True, help="gallery directory from 'enroll'")
    p.add_argument("--out", help="results directory (default: config output_dir)")
    p.add_argument("--svg", action="store_true", help="also render det.svg")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("identify", help="identify a single probe image")
    p.add_argument("--gallery", required=True)
    p.add_argument("--image", required=True, help="probe PGM/PPM file")
    p.add_argument("--metric", choices=METRICS, default="mse")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("det-export", help="DET curve CSV from a scores CSV")
    p.add_argument("--scores", required=True, help="scores.csv written by 'evaluate'")
    p.add_argument("--out", required=True, help="det CSV output path")
    p.add_argument("--svg", help="optional det SVG output path")
    p.set_defaults(func=cmd_det_export)

    p = sub.add_parser("fuse-eval", help="per-channel runs plus score-level fusion")
    add_config_flags(p)
    p.add_argument(
        "--fusion",
        action="append",
        required=True,
        help="fusion spec, e.g. 'sum:R,G,B' or 'w:0.3R+0.59G+0.11B' (repeatable)",
    )
    p.add_argument("--include-y", action="store_true", help="add a feature-level luminance row")
    p.add_argument("--out", help="results directory")
    p.set_defaults(func=cmd_fuse_eval)

    p = sub.add_parser("sigsize", help="test-set size for statistical significance")
    p.add_argument("--alpha", type=float, default=0.05, help="risk of understating the error rate")
    p.add_argument("--beta", type=float, default=0.2, help="relative error margin")
    p.add_argument("--p", type=float, help="expected error rate (solve for N)")
    p.add_argument("--n", type=int, help="trial count (solve for smallest resolvable rate)")
    p.add_argument("--iid", action="store_true", help="assert samples are independent")
    p.set_defaults(func=cmd_sigsize)

    p = sub.add_parser("synth-data", help="generate a deterministic synthetic dataset")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian noise sigma in [0,1] units")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--placement", choices=PLACEMENTS, default="gray", help="where the identity signal lives")
    p.add_argument("--out", required=True, help="dataset directory")
    p.set_defaults(func=cmd_synth_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a write to an output path the caller gave
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
