"""Experiment configuration: schema, validation, file/override loading."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .curvature import LrSchedule
from .errors import ConfigError
from .quantizer import MAX_BITWIDTH

EXPERIMENTS = ("toy2d", "toy-pow32", "train-mnist", "theory-check")
OPTIMIZERS = ("laq", "blaq", "full-precision")


def _valid_bitwidth(k):
    return isinstance(k, int) and 1 <= k <= MAX_BITWIDTH


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x):
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


@dataclass
class ExperimentConfig:
    """Validated knobs for one experiment run.

    `eta_schedule` is a list of [from_step, value] pairs; when omitted
    each runner substitutes its documented default.  Unknown keys are
    rejected at load time.
    """

    experiment: str
    optimizer: str = "blaq"
    bitwidth: int = 1
    a: float = 0.6
    m: int = 5
    eta_schedule: list | None = None
    beta2: float | None = None
    eps: float = 1e-8
    seed: int | None = None
    steps: int | None = None
    epochs: int = 20
    batch_size: int = 128
    output_dir: str | None = None
    omega0: list | None = None
    c: float = 1.0
    window: int = 100
    sweep_bitwidths: list | None = None
    track_coords: int = 8
    hidden: list = field(default_factory=lambda: [256, 128, 64])
    data_dir: str | None = None
    fetch_url: str | None = None
    n_instances: int = 50
    theory_dim: int = 4

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        # per-experiment defaults: the theorem suite is calibrated separately
        if self.beta2 is None:
            self.beta2 = 0.95 if self.experiment == "theory-check" else 0.999
        if self.seed is None:
            self.seed = 5 if self.experiment == "theory-check" else 0
        for key in sorted(_FLOAT_KEYS):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")
        if not _valid_bitwidth(self.bitwidth):
            raise ConfigError(
                f"bitwidth must be an integer in 1..{MAX_BITWIDTH}, got {self.bitwidth!r}")
        if not 0.0 <= self.a <= 1.0:
            raise ConfigError(f"a must lie in [0, 1], got {self.a}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ConfigError(f"m must be a positive integer, got {self.m!r}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ConfigError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.steps is not None and (not isinstance(self.steps, int) or self.steps < 1):
            raise ConfigError(f"steps must be a positive integer, got {self.steps!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.track_coords <= 8:
            raise ConfigError(f"track_coords must be in 1..8, got {self.track_coords}")
        if self.c <= 0.0:
            raise ConfigError(f"c must be positive, got {self.c}")
        if self.n_instances < 1:
            raise ConfigError(f"n_instances must be positive, got {self.n_instances}")
        if self.theory_dim < 2:
            raise ConfigError(f"theory_dim must be >= 2, got {self.theory_dim}")
        if self.omega0 is not None and not (
                isinstance(self.omega0, list) and self.omega0
                and all(_is_finite_number(x) for x in self.omega0)):
            raise ConfigError(f"omega0 must be a non-empty list of finite numbers, "
                              f"got {self.omega0!r}")
        if not (isinstance(self.hidden, list)
                and all(_is_int(h) and h > 0 for h in self.hidden)):
            raise ConfigError(f"hidden must be a list of positive integers, got {self.hidden!r}")
        if self.sweep_bitwidths is not None and not (
                isinstance(self.sweep_bitwidths, list) and self.sweep_bitwidths
                and all(_valid_bitwidth(k) for k in self.sweep_bitwidths)
                and len(set(self.sweep_bitwidths)) == len(self.sweep_bitwidths)):
            raise ConfigError(f"sweep_bitwidths must be a non-empty list of distinct integers "
                              f"in 1..{MAX_BITWIDTH}, got {self.sweep_bitwidths!r}")
        if self.eta_schedule is not None:
            self.schedule()  # validates

    def schedule(self, default=None):
        """Resolve the learning-rate schedule, or the supplied default."""
        if self.eta_schedule is None:
            if default is None:
                raise ConfigError("no eta_schedule given and no default available")
            return default
        try:
            return LrSchedule(self.eta_schedule)
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"bad eta_schedule: {e}") from e

    def echo(self, **resolved):
        """JSON-ready dict of the full config plus resolved defaults."""
        out = dataclasses.asdict(self)
        out.update(resolved)
        return out


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_FLOAT_KEYS = {"a", "beta2", "eps", "c"}
_INT_KEYS = {"bitwidth", "m", "seed", "steps", "epochs", "batch_size",
             "window", "track_coords", "n_instances", "theory_dim"}


def _coerce(key, value):
    if value is None:
        return None
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value}")
        return int(value)
    return value


def config_from_dict(data):
    """Build a config from a plain dict, rejecting unknown keys."""
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        coerced = {k: _coerce(k, v) for k, v in data.items()}
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad config value: {e}") from e
    try:
        return ExperimentConfig(**coerced)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def load_config(path=None, overrides=None, experiment=None):
    """Merge config file, CLI overrides, and the subcommand's experiment."""
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    if experiment is not None:
        if data.get("experiment", experiment) != experiment:
            raise ConfigError(
                f"config file says experiment={data['experiment']!r} but the "
                f"{experiment!r} subcommand was invoked")
        data["experiment"] = experiment
    for key, raw in (overrides or {}).items():
        key = key.replace("-", "_")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw
    return config_from_dict(data)
