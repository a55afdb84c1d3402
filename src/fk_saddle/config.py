"""Run configuration: a small key=value / [section] format with validation.

Unknown keys are errors (named by their full path), parse errors carry line
numbers, and ``format_config(parse_config(text))`` is canonical: parsing the
formatted text reproduces the configuration exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

from .fields import FkSaddleError

COMMANDS = ("minimize", "gap", "mpp", "hetero", "mph", "multiplicity",
            "verify", "landscape", "validate")


class ConfigError(FkSaddleError):
    pass


def _parse_int_tuple(text):
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise ConfigError("expected comma-separated integers, got %r" % text)


def _fmt_int_tuple(value):
    return ",".join(str(int(x)) for x in value)


def _parse_float_or_auto(text):
    if str(text).strip() == "auto":
        return None
    return float(text)


def _fmt_float_or_auto(value):
    return "auto" if value is None else repr(float(value))


def _parse_int_or_auto(text):
    if str(text).strip() == "auto":
        return None
    return int(text)


def _fmt_int_or_auto(value):
    return "auto" if value is None else str(int(value))


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
    t_max: float = 200.0
    tol: float = 1e-10
    max_steps: int = 400000
    # path / minimax
    nodes: int | None = None
    kind: str = "chi"
    k: int | None = None
    mode: str = "node-flow"
    restarts: int = 1
    # window policy
    window: int | None = None
    window_start: int = 20
    # scans and verification
    kmax: int = 6
    probes: int = 7
    trials: int = 100
    grid: int = 400
    resolutions: tuple = (2001,)
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
        if any(x < 1 for x in self.p):
            raise ConfigError("p: periods must be >= 1")
        if any(x < 1 for x in self.q):
            raise ConfigError("q: periods must be >= 1")
        if self.kind not in ("linear", "chi"):
            raise ConfigError("path.kind: must be 'linear' or 'chi'")
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
        if self.k is not None and self.k < 2:
            raise ConfigError("path.k: must be >= 2 or auto")
        if self.restarts < 0:
            raise ConfigError("path.restarts: must be >= 0")
        if self.window is not None and self.window < 1:
            raise ConfigError("window.size: must be >= 1 or auto")
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
    ("", "seed"): ("seed", _parse_int_or_auto, _fmt_int_or_auto),
    ("", "out"): ("out", str, str),
    ("", "fields-out"): ("fields_out", str, str),
    ("model-params", "amplitude"): ("amplitude", float, lambda v: repr(v)),
    ("model-params", "coupling"): ("coupling", float, lambda v: repr(v)),
    ("model-params", "n"): ("n", int, str),
    ("flow", "dt"): ("dt", _parse_float_or_auto, _fmt_float_or_auto),
    ("flow", "t-max"): ("t_max", float, repr),
    ("flow", "tol"): ("tol", float, repr),
    ("flow", "max-steps"): ("max_steps", int, str),
    ("path", "nodes"): ("nodes", _parse_int_or_auto, _fmt_int_or_auto),
    ("path", "kind"): ("kind", str, str),
    ("path", "k"): ("k", _parse_int_or_auto, _fmt_int_or_auto),
    ("path", "mode"): ("mode", str, str),
    ("path", "restarts"): ("restarts", int, str),
    ("window", "size"): ("window", _parse_int_or_auto, _fmt_int_or_auto),
    ("window", "start"): ("window_start", int, str),
    ("scan", "kmax"): ("kmax", int, str),
    ("gap", "probes"): ("probes", int, str),
    ("verify", "trials"): ("trials", int, str),
    ("verify", "grid"): ("grid", int, str),
    ("verify", "resolutions"): ("resolutions", _parse_int_tuple, _fmt_int_tuple),
    ("verify", "cross-check"): ("cross_check", _parse_bool,
                                lambda v: "true" if v else "false"),
}

_DEFAULTS = RunConfig()


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
        attr, parser, _ = SCHEMA[(section, key)]
        try:
            setattr(cfg, attr, parser(value))
        except (ValueError, ConfigError) as exc:
            raise ConfigError("line %d: %s: %s" % (lineno, path, exc))
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
