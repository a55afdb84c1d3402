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

from .defaults import (FLOW_T_MAX, GAP_PROBES, MAX_FLOW_STEPS, MAX_TORUS_CELLS,
                       ORACLE_RESOLUTION, STATIONARITY_TOL, WINDOW_CAP)
from .fields import FkSaddleError

COMMANDS = ("minimize", "gap", "mpp", "hetero", "mph", "multiplicity",
            "verify", "landscape", "validate")
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


def _or_auto(kind):
    """The (parser, formatter) of a ``kind`` value that ``auto`` (None) may
    replace; floats are formatted by ``repr``, so they round-trip."""
    fmt = repr if kind is float else str
    return (lambda text: None if str(text).strip() == "auto" else kind(text),
            lambda value: "auto" if value is None else fmt(kind(value)))


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
    dt: float | None = None
    t_max: float = FLOW_T_MAX
    tol: float = STATIONARITY_TOL
    max_steps: int = MAX_FLOW_STEPS
    # path / minimax
    nodes: int | None = None
    mode: str = "node-flow"
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
        if self.command not in COMMANDS:
            raise ConfigError("command: unknown command %r (choose from %s)"
                              % (self.command, ", ".join(COMMANDS)))
        if self.seed is None and self.command in SEEDED:
            raise ConfigError("seed: required by %s" % self.command)
        for name in ("amplitude", "coupling"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError("model-params.%s: must be finite" % name)
        if self.n < 1:
            raise ConfigError("model-params.n: must be >= 1")
        # p is a torus of the model's dimension, q the strip's transverse torus
        for key, periods, dim, readers in (
                ("p", self.p, self.n, ("minimize", "gap", "mpp", "verify")),
                ("q", self.q, self.n - 1, ("hetero", "mph"))):
            if any(x < 1 for x in periods):
                raise ConfigError("%s: periods must be >= 1" % key)
            if self.command not in readers:
                continue
            if len(periods) != dim:
                raise ConfigError("%s: %s needs %d periods for model dimension %d, "
                                  "got %d" % (key, self.command, dim, self.n, len(periods)))
            if math.prod(periods) > MAX_TORUS_CELLS:
                raise ConfigError("%s: %d cells exceed MAX_TORUS_CELLS=%d"
                                  % (key, math.prod(periods), MAX_TORUS_CELLS))
        if self.mode not in ("node-flow", "heat-flow"):
            raise ConfigError("path.mode: must be 'node-flow' or 'heat-flow'")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("flow.tol: must be finite and positive")
        if self.dt is not None and not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError("flow.dt: must be auto or finite and positive")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ConfigError("flow.t-max: must be finite and positive")
        if self.max_steps < 1:
            raise ConfigError("flow.max-steps: must be >= 1")
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
    ("", "seed"): ("seed", *_or_auto(int)),
    ("", "out"): ("out", str, str),
    ("", "fields-out"): ("fields_out", str, str),
    ("model-params", "amplitude"): ("amplitude", float, lambda v: repr(v)),
    ("model-params", "coupling"): ("coupling", float, lambda v: repr(v)),
    ("model-params", "n"): ("n", int, str),
    ("flow", "dt"): ("dt", *_or_auto(float)),
    ("flow", "t-max"): ("t_max", float, repr),
    ("flow", "tol"): ("tol", float, repr),
    ("flow", "max-steps"): ("max_steps", int, str),
    ("path", "nodes"): ("nodes", *_or_auto(int)),
    ("path", "mode"): ("mode", str, str),
    ("window", "size"): ("window", *_or_auto(int)),
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
