"""Flat ``key = value`` experiment configuration with typed parsing.

One key per line; ``#`` comments and blank lines are skipped. Each key is a
field of ``ExperimentConfig``, parsed by the field's type: an int, a float, a
string, a boolean (``true``/``yes``/``1`` or ``false``/``no``/``0``), or a
comma list for a tuple (empty parts skipped); ``tol`` also takes ``none``.
Unknown keys are rejected with their line number, and ``--set key=value``
overrides any key. ``resolve()`` checks each key once: a float must be
finite, by its type; ``_POSITIVE``, ``_NONNEGATIVE`` and ``_CHOICES`` give
its bounds and allowed names; no list may be empty. Errors name their key.
"""
from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .data import check_synthetic_margin
from .federation import METHODS, SHUFFLED, STRATEGIES

# Per-problem values of the keys left unset, the stepsize schedule included.
_CLASSIFICATION = {"max_rounds": 200, "tol": None,
                   "gamma1": 10.0, "a": 0.8, "lambda1": 1.0, "b": 0.1}
_PROBLEM_DEFAULTS = {
    "selection-1d": {"n": 1, "m": 1, "max_rounds": 20_000, "tol": None,
                     "gamma1": 1.0, "a": 0.55, "lambda1": 1.0, "b": 0.4},
    "location": {"n": 10, "m": 500, "max_rounds": 100_000, "tol": 1e-5,
                 "gamma1": 1.0, "a": 0.8, "lambda1": 1.0, "b": 0.1},
    "logistic-synthetic": {"n": 20, "m": 400, **_CLASSIFICATION},
    "logistic-mnist": _CLASSIFICATION,  # n and m come from the images
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

    def __post_init__(self) -> None:
        self.provided: set[str] = set()  # the keys set by the text, not a key

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
        """Fill unset keys from per-problem defaults, then validate. Returns self."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem must be one of {PROBLEMS}, got {self.problem!r}",
                              key="problem")
        # An unset key is None, except tol, whose None may be a set "none".
        for key, value in _PROBLEM_DEFAULTS[self.problem].items():
            if getattr(self, key) is None and key not in self.provided:
                setattr(self, key, value)
        self._validate()
        return self

    def _validate(self) -> None:
        for key, checks in _RULES:  # each key's own rules, finiteness first
            value = getattr(self, key)
            if value == ():
                raise ConfigError(f"{key} must not be empty", key=key)
            values = value if isinstance(value, tuple) else () if value is None else (value,)
            for ok, need in checks:
                if not all(map(ok, values)):
                    raise ConfigError(f"{key} must be {need}, got {value!r}", key=key)
        # A repeated entry would run its grid cell twice into one set of files.
        for key in ("methods", "s_values"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise ConfigError(f"{key} must not repeat an entry", key=key)
        if not self.out_dir:  # an empty directory name would write into the cwd
            raise ConfigError("out_dir must not be empty", key="out_dir")
        if self.problem == "selection-1d" and self.n != 1:
            raise ConfigError(f"selection-1d has dimension 1, got n = {self.n}", key="n")
        for key in ("n", "m"):
            if self.problem == "logistic-mnist" and key in self.provided:
                raise ConfigError(f"logistic-mnist takes {key} from the images; "
                                  f"{key} must not be set", key=key)
        # logistic-mnist takes its inner-function count from the data, not
        # from the m key, so its client counts are checked per run.
        if self.problem != "logistic-mnist" and max(self.s_values) > self.m:
            raise ConfigError(f"s_values must not exceed m = {self.m} (each client needs "
                              f"at least one inner function)", key="s_values")
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
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def _parser(hint):
    """The parser of a key whose field has type ``hint``."""
    if isinstance(hint, types.UnionType):  # X | None parses as X
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]: a comma list of X
        part = _parser(typing.get_args(hint)[0])
        return lambda raw: tuple(part(p.strip()) for p in raw.split(",") if p.strip())
    return _parse_bool if hint is bool else hint


# A field of a float type must be finite. Lower bounds and allowed names are
# per key; a list key holds each entry to its rule.
_FLOAT_TYPES = (float, float | None, tuple[float, ...], tuple[float, ...] | None)
_POSITIVE = ("n", "m", "s_values", "repeats", "max_rounds", "gamma1", "lambda1", "tol")
_NONNEGATIVE = ("a", "b", "test_size", "unit_cost", "comm_cost", "client_cost_scale")
_CHOICES = {"methods": METHODS, "partition": STRATEGIES}


def _checks(key: str, hint) -> tuple:
    """``(test of one entry, what it must be)`` for each rule of ``key``."""
    return tuple((ok, need) for applies, ok, need in (
        (hint in _FLOAT_TYPES, math.isfinite, "finite"),
        (key in _POSITIVE, lambda v: v > 0, "positive"),
        (key in _NONNEGATIVE, lambda v: v >= 0, "nonnegative"),
        (key in _CHOICES, lambda v: v in _CHOICES[key], f"one of {_CHOICES.get(key)}"),
    ) if applies)


_HINTS = typing.get_type_hints(ExperimentConfig)
_PARSERS = {key: _parser(hint) for key, hint in _HINTS.items()}
_PARSERS["tol"] = _parse_opt_float  # only for tol does "none" mean something
_RULES = tuple((key, _checks(key, hint)) for key, hint in _HINTS.items())


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
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
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is not text
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    cfg = parse_config_text(text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg.set_key(key.strip(), raw.strip())
    return cfg.resolve()
