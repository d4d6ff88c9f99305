"""Scenario configuration: INI files with Table-style defaults.

Two built-in injection scenarios are provided.  ``test1`` has Lipschitz
mobility (smooth van Genuchten exponent), ``test2`` the same geometry with a
Hoelder-continuous mobility and weaker inflow; ``custom`` starts from the
``test1`` defaults and expects overrides.  Any key may be overridden in the
file; unknown keys are rejected with their full path.  Every construction of a
``ScenarioConfig``, ``dataclasses.replace`` included, is checked: an out-of-range
or non-finite value (but ``N = inf``, incompressible), a count that is not an
integer, or an empty sweep list or one that repeats a value, raises
``ConfigError``.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace
from numbers import Integral

from .constitutive import PorosityLaw, VanGenuchtenModel
from .fem import assemble
from .mesh import RectMesh, whole_multiple
from .model import PhysicsParams
from .schemes import SCHEMES, SchemeConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "test1"
    nx: int = 25
    ny: int = 25
    Lx: float = 1.0
    Ly: float = 1.0
    inflow_width: float = 0.2
    # physics (test1 defaults)
    E: float = 30.0
    nu: float = 0.2
    p0: float = -7.78
    phi0: float = 0.2
    a_vg: float = 0.1844
    n_vg: float = 3.0
    kappa: float = 3e-2
    mu_w: float = 1.0
    gx: float = 0.0
    gy: float = 0.0
    rho_w: float = 1.0
    rho_b: float = 1.0
    alphas: tuple = (0.1, 0.5, 1.0)
    N: float = math.inf
    q_star: float = -1.25
    # numerics
    tau: float = 0.1
    T: float = 1.0
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iters: int = 500
    # sweep
    schemes: tuple = tuple(SCHEMES)
    depths: tuple = (0, 1, 3, 5, 10)
    workers: int = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)  # the usable cores; 1 runs serially
    # output
    out_dir: str = "out"
    fields: str = "none"

    def __post_init__(self):
        checks = [
            (self.scenario in ("test1", "test2", "custom"), "scenario"),
            (isinstance(self.nx, Integral) and self.nx >= 1, "nx"),
            (isinstance(self.ny, Integral) and self.ny >= 1, "ny"),
            (self.Lx > 0, "Lx"), (self.Ly > 0, "Ly"),
            (0 <= self.inflow_width <= self.Lx, "inflow_width"),
            (self.E > 0, "E"),
            (0 <= self.nu < 0.5, "nu"),
            (0 < self.phi0 < 1, "phi0"),
            (self.a_vg > 0, "a_vg"),
            (self.n_vg > 1, "n_vg"),
            (self.kappa > 0, "kappa"),
            (self.mu_w > 0, "mu_w"),
            (all(0 < a <= 1 for a in self.alphas), "alphas"),
            # alphas that print alike would share their rows' labels and field files
            (len({f"{a:g}" for a in self.alphas}) == len(self.alphas), "alphas"),
            (self.N > 0, "N"),
            (self.tau > 0, "tau"),
            (self.tau > 0 and self.T >= self.tau and whole_multiple(self.T, self.tau), "T"),
            (self.eps_abs > 0, "eps_abs"), (self.eps_rel > 0, "eps_rel"),
            (isinstance(self.max_iters, Integral) and self.max_iters >= 1, "max_iters"),
            (all(s in SCHEMES for s in self.schemes), "schemes"),
            (all(isinstance(d, Integral) and d >= 0 for d in self.depths), "depths"),
            (isinstance(self.workers, Integral) and self.workers >= 1, "workers"),
            (self.fields in ("none", "csv", "vtk"), "fields"),
        ] + [(math.isfinite(value), name) for name, value in vars(self).items()
             if isinstance(value, float) and name != "N"] + [
            (0 < len(value) == len(set(value)), name)
            for name, value in vars(self).items() if isinstance(value, tuple)]
        for ok, name in checks:
            if not ok:
                raise ConfigError(f"{_PATHS[name]}: value out of range")
        if whole_multiple(self.inflow_width, self.Lx / self.nx) is None:  # needs nx >= 1
            raise ConfigError(f"{_PATHS['inflow_width']}: value out of range")

    # -- derived objects -------------------------------------------------

    @property
    def lame(self):
        mu = self.E / (2.0 * (1.0 + self.nu))
        lam = self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))
        return mu, lam

    def mesh(self):
        return RectMesh(self.nx, self.ny, self.Lx, self.Ly, self.inflow_width)

    def operators(self):
        mu, lam = self.lame
        return assemble(self.mesh(), mu, lam)

    def params_for(self, alpha: float) -> PhysicsParams:
        return PhysicsParams(
            vg=VanGenuchtenModel(self.a_vg, self.n_vg, self.kappa, self.mu_w),
            law=PorosityLaw(self.phi0, alpha, 0.0 if math.isinf(self.N) else 1.0 / self.N),
            rho_w=self.rho_w,
            rho_b=self.rho_b,
            g=(self.gx, self.gy),
            q_star=self.q_star,
            tau=self.tau,
            T=self.T,
        )

    def scheme_config(self, name: str) -> SchemeConfig:
        return SchemeConfig(kind=name, max_iters=self.max_iters,
                            eps_abs=self.eps_abs, eps_rel=self.eps_rel)


_TEST2_OVERRIDES = dict(p0=-15.3, a_vg=0.627, n_vg=1.4, q_star=-0.175)

SCHEMA_VERSION = 1

# Every INI key by section, with the field it sets; the field's default
# gives the type a value is read as.  schema_version sets no field.
_KEYS = {
    "scenario": {"name": "scenario", "nx": "nx", "ny": "ny", "lx": "Lx", "ly": "Ly",
                 "inflow_width": "inflow_width", "schema_version": "schema_version"},
    "physics": {"e": "E", "nu": "nu", "p0": "p0", "phi0": "phi0", "a_vg": "a_vg",
                "n_vg": "n_vg", "kappa": "kappa", "mu_w": "mu_w", "gx": "gx", "gy": "gy",
                "rho_w": "rho_w", "rho_b": "rho_b", "alpha": "alphas", "n": "N",
                "q_star": "q_star"},
    "numerics": {"tau": "tau", "t": "T", "eps_abs": "eps_abs", "eps_rel": "eps_rel",
                 "max_iters": "max_iters"},
    "sweep": {"schemes": "schemes", "depths": "depths", "workers": "workers"},
    "output": {"dir": "out_dir", "fields": "fields"},
}
_PATHS = {name: f"{section}.{key}" for section, keys in _KEYS.items()
          for key, name in keys.items()}


def _parse(default, raw, path):
    """``raw`` read as the type of ``default``; a comma list for a tuple."""
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(s.strip()) for s in raw.split(",") if s.strip())
        return type(default)(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r}") from exc


def default_config(scenario: str = "test1") -> ScenarioConfig:
    """Built-in defaults of one of the named scenarios."""
    overrides = _TEST2_OVERRIDES if scenario == "test2" else {}
    return ScenarioConfig(scenario=scenario, **overrides)


def load_config(path) -> ScenarioConfig:
    """Read a key = value UTF-8 INI file (a leading byte-order mark is
    skipped) and apply scenario defaults for omitted keys.  An empty file
    yields the full test1 configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            name = _KEYS[section][key]
            overrides[name] = _parse(getattr(ScenarioConfig, name, SCHEMA_VERSION),
                                     raw, f"{section}.{key}")

    if overrides.pop("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError("scenario.schema_version: unsupported schema version")
    return replace(default_config(overrides.pop("scenario", "test1")), **overrides)
