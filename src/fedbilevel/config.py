"""Flat ``key = value`` experiment configuration with typed parsing.

One key per line, ``#`` comments and blank lines allowed. Values are typed
per key (ints, floats, booleans, comma-separated lists, or the keyword
``none``). Unknown keys are rejected with the offending line number. Any key
can be overridden from the command line with ``--set key=value``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import check_synthetic_margin
from .federation import METHODS, SHUFFLED, STRATEGIES

# Named stepsize presets: (gamma1, a, lambda1, b).
SCHEDULE_PRESETS = {
    "classification": (10.0, 0.8, 1.0, 0.1),
    "location": (1.0, 0.8, 1.0, 0.1),
    "selection": (1.0, 0.55, 1.0, 0.4),
}

# Float keys (or lists of floats) that must hold finite numbers when set.
_FINITE_KEYS = ("gamma1", "a", "lambda1", "b", "tol", "unit_cost", "comm_cost",
                "client_cost_scale")

_PROBLEM_DEFAULTS = {
    # problem: (n, m, max_rounds, tol, schedule preset)
    "selection-1d": (1, 1, 20_000, None, "selection"),
    "location": (10, 500, 100_000, 1e-5, "location"),
    "logistic-synthetic": (20, 400, 200, None, "classification"),
    "logistic-mnist": (784, 11_000, 200, None, "classification"),
}
PROBLEMS = tuple(_PROBLEM_DEFAULTS)


class ConfigError(ValueError):
    def __init__(self, message: str, lineno: int | None = None, key: str | None = None):
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{prefix}{message}")
        self.lineno = lineno
        self.key = key


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_opt_float(raw: str) -> float | None:
    if raw.lower() == "none":
        return None
    return float(raw)


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_PARSERS = {
    "problem": str,
    "n": int,
    "m": int,
    "seed": int,
    "methods": _parse_str_list,
    "s_values": _parse_int_list,
    "schedule_preset": str,
    "gamma1": float,
    "a": float,
    "lambda1": float,
    "b": float,
    "max_rounds": int,
    "tol": _parse_opt_float,
    "repeats": int,
    "margin": float,
    "test_size": int,
    "pos_digit": int,
    "neg_digit": int,
    "images_path": str,
    "labels_path": str,
    "test_images_path": str,
    "test_labels_path": str,
    "partition": str,
    "unit_cost": float,
    "comm_cost": _parse_float_list,
    "client_cost_scale": _parse_float_list,
    "out_dir": str,
    "write_csv": _parse_bool,
}


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``resolve()`` fills per-problem
    defaults for keys the user left unset."""

    problem: str = "selection-1d"
    n: int | None = None
    m: int | None = None
    seed: int = 0
    methods: tuple[str, ...] = ("fism", "irig")
    s_values: tuple[int, ...] = (1,)
    schedule_preset: str | None = None
    gamma1: float | None = None
    a: float | None = None
    lambda1: float | None = None
    b: float | None = None
    max_rounds: int | None = None
    tol: float | None = None
    repeats: int = 1
    margin: float = 0.5
    test_size: int = 100
    pos_digit: int = 1
    neg_digit: int = 0
    images_path: str = ""
    labels_path: str = ""
    test_images_path: str = ""
    test_labels_path: str = ""
    partition: str = SHUFFLED
    unit_cost: float = 1.0
    comm_cost: tuple[float, ...] = (0.0,)
    client_cost_scale: tuple[float, ...] | None = None
    out_dir: str = "runs"
    write_csv: bool = False
    provided: set = field(default_factory=set, repr=False, compare=False)

    def set_key(self, key: str, raw: str, lineno: int | None = None) -> None:
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", lineno=lineno, key=key)
        try:
            value = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}", lineno=lineno, key=key) from None
        setattr(self, key, value)
        self.provided.add(key)

    def resolve(self) -> "ExperimentConfig":
        """Fill unset keys from per-problem defaults and the schedule preset,
        then validate. Returns self."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem must be one of {PROBLEMS}, got {self.problem!r}",
                              key="problem")
        n_def, m_def, rounds_def, tol_def, preset_def = _PROBLEM_DEFAULTS[self.problem]
        if self.n is None:
            self.n = n_def
        if self.m is None:
            self.m = m_def
        if self.max_rounds is None:
            self.max_rounds = rounds_def
        if "tol" not in self.provided:
            self.tol = tol_def
        preset = self.schedule_preset or preset_def
        if preset not in SCHEDULE_PRESETS:
            raise ConfigError(f"schedule_preset must be one of {tuple(SCHEDULE_PRESETS)}, "
                              f"got {preset!r}", key="schedule_preset")
        g1, a, l1, b = SCHEDULE_PRESETS[preset]
        if self.gamma1 is None:
            self.gamma1 = g1
        if self.a is None:
            self.a = a
        if self.lambda1 is None:
            self.lambda1 = l1
        if self.b is None:
            self.b = b
        self._validate()
        return self

    def _validate(self) -> None:
        # Every range check below is False for NaN, so finiteness comes first.
        for key in _FINITE_KEYS:
            value = getattr(self, key)
            values = value if isinstance(value, tuple) else (value,)
            if not all(v is None or math.isfinite(v) for v in values):
                raise ConfigError(f"{key} must be finite, got {value!r}", key=key)
        if not self.methods:
            raise ConfigError("methods must not be empty", key="methods")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"methods must be drawn from {METHODS}, got {method!r}",
                                  key="methods")
        if not self.s_values or any(s < 1 for s in self.s_values):
            raise ConfigError("s_values must be positive integers", key="s_values")
        # A repeated entry would run its grid cell twice into one set of files.
        for key in ("methods", "s_values"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise ConfigError(f"{key} must not repeat an entry", key=key)
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be positive", key="n")
        if self.problem == "selection-1d" and self.n != 1:
            raise ConfigError(f"selection-1d has dimension 1, got n = {self.n}", key="n")
        # logistic-mnist takes its inner-function count from the data, not
        # from the m key, so its client counts are checked per run.
        if self.problem != "logistic-mnist" and max(self.s_values) > self.m:
            raise ConfigError(f"s_values must not exceed m = {self.m} (each client needs "
                              f"at least one inner function)", key="s_values")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1", key="repeats")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1", key="max_rounds")
        if self.gamma1 <= 0 or self.lambda1 <= 0:
            raise ConfigError("gamma1 and lambda1 must be positive", key="gamma1")
        if self.a < 0 or self.b < 0:
            raise ConfigError("exponents a and b must be nonnegative", key="a")
        if self.tol is not None and self.tol <= 0:
            raise ConfigError("tol must be positive or none", key="tol")
        if self.partition not in STRATEGIES:
            raise ConfigError(f"partition must be one of {STRATEGIES}", key="partition")
        if not self.comm_cost:
            raise ConfigError("comm_cost must hold one value or one per client", key="comm_cost")
        if self.unit_cost < 0 or any(c < 0 for c in self.comm_cost):
            raise ConfigError("costs must be nonnegative", key="unit_cost")
        if self.client_cost_scale == ():
            raise ConfigError("client_cost_scale must hold one value per client",
                              key="client_cost_scale")
        if self.client_cost_scale is not None and any(c < 0 for c in self.client_cost_scale):
            raise ConfigError("client_cost_scale entries must be nonnegative",
                              key="client_cost_scale")
        if self.test_size < 0:
            raise ConfigError("test_size must be >= 0", key="test_size")
        if self.problem == "logistic-synthetic":
            for key in ("m", "test_size"):
                if getattr(self, key) % 2:
                    raise ConfigError(f"{key} must be even for balanced synthetic classes",
                                      key=key)
            try:
                check_synthetic_margin(self.m + self.test_size, self.margin)
            except ValueError as exc:
                raise ConfigError(str(exc), key="margin") from None
        if bool(self.test_images_path) != bool(self.test_labels_path):
            raise ConfigError("test_images_path and test_labels_path must be set together",
                              key="test_labels_path" if self.test_images_path
                              else "test_images_path")
        if self.problem == "logistic-mnist":
            if self.pos_digit == self.neg_digit:
                raise ConfigError("pos_digit and neg_digit must differ", key="pos_digit")
            for key in ("pos_digit", "neg_digit"):
                if not 0 <= getattr(self, key) <= 9:
                    raise ConfigError(f"{key} must be a digit from 0 to 9, got "
                                      f"{getattr(self, key)}", key=key)
            for key in ("images_path", "labels_path"):
                if not getattr(self, key):
                    raise ConfigError(f"logistic-mnist needs {key}", key=key)

    def echo_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "provided":
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base if base is not None else ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno=lineno)
        key, _, raw = stripped.partition("=")
        cfg.set_key(key.strip(), raw.strip(), lineno=lineno)
    return cfg


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse a config file, apply ``--set key=value`` overrides, resolve."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    cfg = parse_config_text(text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg.set_key(key.strip(), raw.strip())
    return cfg.resolve()
