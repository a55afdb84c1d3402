"""Run configuration: a small key=value / [section] format with validation.

``SCHEMA`` is the one parser of run settings: job files and command-line
flags both set a key through ``set_key``, and ``RunConfig.validate`` holds
every rule on the values, so both routes accept and reject the same input.
``RunConfig``'s field defaults are the only defaults.  Unknown keys are
errors (named by their full path), parse errors carry line numbers (or the
flag), and ``format_config(parse_config(text))`` is canonical: parsing the
formatted text reproduces the configuration exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

from .defaults import (GAP_PROBES, MAX_TORUS_CELLS, ORACLE_RESOLUTION,
                       STATIONARITY_TOL, WINDOW_CAP)
from .fields import FkSaddleError

# The job-file keys each command reads that are also its flags: a flag is its
# key's name, parsed by its SCHEMA entry (``cli.FLAG_KEYS`` renames two).  A
# command takes no flag it does not read; its job file may set any key.
COMMON_FLAGS = ("model", "amplitude", "coupling", "seed", "out")
COMMAND_FLAGS = {
    "minimize": ("p", "tol", "fields-out"),
    "gap": ("p", "tol", "probes"),
    "mpp": ("p", "tol", "probes", "fields-out", "nodes"),
    "landscape": ("tol", "probes", "fields-out", "grid"),
    "multiplicity": ("tol", "probes", "kmax"),
    "hetero": ("q", "tol", "probes", "fields-out", "window"),
    "mph": ("q", "tol", "probes", "fields-out", "nodes", "window"),
    "verify": ("p", "tol", "probes", "trials", "cross-check", "resolutions"),
    "validate": ("samples",),
}
# commands that need an explicit seed; minimize (random seed fields) and
# landscape (gap probes) are stochastic too but run at seed 0 without one
SEEDED = ("gap", "mpp", "multiplicity", "hetero", "mph", "verify", "validate")


class ConfigError(FkSaddleError):
    pass


def _parse_int_tuple(text):
    """Comma-separated integers; an empty value is ``()`` (no periods)."""
    if not str(text).strip():
        return ()
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise ConfigError("expected comma-separated integers, got %r" % text)


def _fmt_int_tuple(value):
    return ",".join(str(int(x)) for x in value)


# the (parser, formatter) of an integer that ``auto`` (None) may replace
_INT_OR_AUTO = (lambda text: None if str(text).strip() == "auto" else int(text),
                lambda value: "auto" if value is None else str(int(value)))


@dataclass
class RunConfig:
    command: str = "minimize"
    model: str = "classical-fk"
    p: tuple = (1, 1)
    q: tuple = (1,)
    seed: int | None = None
    out: str | None = None
    fields_out: str | None = None
    # model parameters
    amplitude: float | None = None
    coupling: float | None = None
    n: int = 2
    # flow
    tol: float = STATIONARITY_TOL
    # path / minimax
    nodes: int | None = None
    # window policy
    window: int | None = None
    # scans and verification
    kmax: int = 6
    probes: int = GAP_PROBES
    trials: int = 100
    grid: int = 400
    resolutions: tuple = (ORACLE_RESOLUTION,)
    cross_check: bool = False

    def model_params(self) -> dict:
        out = {"n": self.n}
        if self.amplitude is not None:
            out["amplitude"] = self.amplitude
        if self.coupling is not None:
            out["coupling"] = self.coupling
        return out

    def validate(self) -> "RunConfig":
        if self.command not in COMMAND_FLAGS:
            raise ConfigError("command: unknown command %r (choose from %s)"
                              % (self.command, ", ".join(COMMAND_FLAGS)))
        if self.seed is None and self.command in SEEDED:
            raise ConfigError("seed: required by %s" % self.command)
        for name in ("amplitude", "coupling"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError("model-params.%s: must be finite" % name)
        if self.n < 1:
            raise ConfigError("model-params.n: must be >= 1")
        # p is a torus of the model's dimension, q the strip's transverse torus
        for key, periods, dim in (("p", self.p, self.n), ("q", self.q, self.n - 1)):
            if any(x < 1 for x in periods):
                raise ConfigError("%s: periods must be >= 1" % key)
            if key not in COMMAND_FLAGS[self.command]:
                continue
            if len(periods) != dim:
                raise ConfigError("%s: %s needs %d periods for model dimension %d, "
                                  "got %d" % (key, self.command, dim, self.n, len(periods)))
            if math.prod(periods) > MAX_TORUS_CELLS:
                raise ConfigError("%s: %d cells exceed MAX_TORUS_CELLS=%d"
                                  % (key, math.prod(periods), MAX_TORUS_CELLS))
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("flow.tol: must be finite and positive")
        if self.nodes is not None and self.nodes < 3:
            raise ConfigError("path.nodes: must be >= 3 or auto")
        if self.window is not None and not 1 <= self.window <= WINDOW_CAP:
            raise ConfigError("window.size: must be auto or from 1 to the cap %d "
                              "(WINDOW_CAP)" % WINDOW_CAP)
        if self.kmax < 2:
            raise ConfigError("scan.kmax: must be >= 2")
        if self.probes < 1:
            raise ConfigError("gap.probes: must be >= 1")
        if self.trials < 0:
            raise ConfigError("verify.trials: must be >= 0")
        if self.grid < 2:
            raise ConfigError("verify.grid: must be >= 2")
        if not self.resolutions or min(self.resolutions) < 101:
            raise ConfigError("verify.resolutions: each must be >= 101")
        return self


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ConfigError("expected a boolean, got %r" % text)


# (section, key) -> (attribute, parser, formatter)
SCHEMA = {
    ("", "command"): ("command", str, str),
    ("", "model"): ("model", str, str),
    ("", "p"): ("p", _parse_int_tuple, _fmt_int_tuple),
    ("", "q"): ("q", _parse_int_tuple, _fmt_int_tuple),
    ("", "seed"): ("seed", *_INT_OR_AUTO),
    ("", "out"): ("out", str, str),
    ("", "fields-out"): ("fields_out", str, str),
    ("model-params", "amplitude"): ("amplitude", float, lambda v: repr(v)),
    ("model-params", "coupling"): ("coupling", float, lambda v: repr(v)),
    ("model-params", "n"): ("n", int, str),
    ("flow", "tol"): ("tol", float, repr),
    ("path", "nodes"): ("nodes", *_INT_OR_AUTO),
    ("window", "size"): ("window", *_INT_OR_AUTO),
    ("scan", "kmax"): ("kmax", int, str),
    ("gap", "probes"): ("probes", int, str),
    ("verify", "trials"): ("trials", int, str),
    ("verify", "grid"): ("grid", int, str),
    ("verify", "resolutions"): ("resolutions", _parse_int_tuple, _fmt_int_tuple),
    ("verify", "cross-check"): ("cross_check", _parse_bool,
                                lambda v: "true" if v else "false"),
}

_DEFAULTS = RunConfig()


def set_key(cfg: RunConfig, entry, text: str, where: str) -> None:
    """Parse ``text`` as the SCHEMA key ``entry`` into ``cfg``; a bad value
    is a ConfigError naming ``where`` (a job-file line or a flag)."""
    attr, parser, _ = SCHEMA[entry]
    try:
        setattr(cfg, attr, parser(text))
    except (ValueError, ConfigError) as exc:
        raise ConfigError("%s: %s" % (where, exc))


def parse_config(text: str) -> RunConfig:
    """Parse key=value / [section] text into a validated RunConfig."""
    cfg = RunConfig()
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("line %d: unterminated section header %r"
                                  % (lineno, raw))
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        path = "%s.%s" % (section, key) if section else key
        if (section, key) not in SCHEMA:
            raise ConfigError("line %d: unknown key %r" % (lineno, path))
        set_key(cfg, (section, key), value, "line %d: %s" % (lineno, path))
    return cfg.validate()


def format_config(cfg: RunConfig) -> str:
    """Canonical text for a RunConfig; round-trips through parse_config."""
    lines = []
    by_section: dict = {}
    for (section, key), (attr, _, fmt) in SCHEMA.items():
        value = getattr(cfg, attr)
        if value is None and getattr(_DEFAULTS, attr) is None:
            continue
        by_section.setdefault(section, []).append((key, fmt(value)))
    for key, text in by_section.get("", []):
        lines.append("%s = %s" % (key, text))
    for section in sorted(s for s in by_section if s):
        lines.append("")
        lines.append("[%s]" % section)
        for key, text in by_section[section]:
            lines.append("%s = %s" % (key, text))
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for f in dc_fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out
