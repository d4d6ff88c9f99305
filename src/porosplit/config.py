"""Scenario configuration: INI files with Table-style defaults.

Two built-in injection scenarios are provided.  ``test1`` has Lipschitz
mobility (smooth van Genuchten exponent), ``test2`` the same geometry with a
Hoelder-continuous mobility and weaker inflow; ``custom`` starts from the
``test1`` defaults and expects overrides.  Any key may be overridden in the
file; unknown keys are rejected with their full path.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .constitutive import PorosityLaw, VanGenuchtenModel
from .fem import assemble
from .mesh import RectMesh
from .model import PhysicsParams
from .schemes import SchemeConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "SCHEME_LABELS"]

SCHEME_LABELS = {
    "newton": "Newton",
    "fsnewton": "FS-Newton",
    "fsmp": "FS-MP",
    "fsl": "FSL",
    "fsl2": "FSL/2",
}


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


@dataclass
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
    schemes: tuple = ("newton", "fsnewton", "fsmp", "fsl", "fsl2")
    depths: tuple = (0, 1, 3, 5, 10)
    workers: int = 1
    # output
    out_dir: str = "out"
    fields: str = "none"

    def validate(self):
        checks = [
            (self.scenario in ("test1", "test2", "custom"), "scenario.name"),
            (self.nx >= 1 and self.ny >= 1, "scenario.nx/ny"),
            (self.Lx > 0 and self.Ly > 0, "scenario.Lx/Ly"),
            (0 <= self.inflow_width <= self.Lx, "scenario.inflow_width"),
            (self.E > 0, "physics.E"),
            (0 <= self.nu < 0.5, "physics.nu"),
            (0 < self.phi0 < 1, "physics.phi0"),
            (self.a_vg > 0, "physics.a_vg"),
            (self.n_vg > 1, "physics.n_vg"),
            (self.kappa > 0, "physics.kappa"),
            (self.mu_w > 0, "physics.mu_w"),
            (all(0 < a <= 1 for a in self.alphas), "physics.alpha"),
            (self.N > 0, "physics.N"),
            (self.tau > 0, "numerics.tau"),
            (self.T >= self.tau, "numerics.T"),
            (self.eps_abs > 0 and self.eps_rel > 0, "numerics.eps_abs/eps_rel"),
            (self.max_iters >= 1, "numerics.max_iters"),
            (all(s in SCHEME_LABELS for s in self.schemes), "sweep.schemes"),
            (all(d >= 0 for d in self.depths), "sweep.depths"),
            (self.workers >= 1, "sweep.workers"),
            (self.fields in ("none", "csv", "vtk"), "output.fields"),
        ]
        for ok, path in checks:
            if not ok:
                raise ConfigError(f"{path}: value out of range")
        return self

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
        mu, lam = self.lame
        return PhysicsParams(
            vg=VanGenuchtenModel(self.a_vg, self.n_vg, self.kappa, self.mu_w),
            law=PorosityLaw(self.phi0, alpha, 0.0 if math.isinf(self.N) else 1.0 / self.N),
            mu=mu,
            lam=lam,
            rho_w=self.rho_w,
            rho_b=self.rho_b,
            g=(self.gx, self.gy),
            q_star=self.q_star,
            tau=self.tau,
            T=self.T,
        )

    def scheme_config(self, name: str) -> SchemeConfig:
        if name == "fsl2":
            return SchemeConfig(kind="fsl", L_scale=0.5, max_iters=self.max_iters,
                                eps_abs=self.eps_abs, eps_rel=self.eps_rel)
        return SchemeConfig(kind=name, max_iters=self.max_iters,
                            eps_abs=self.eps_abs, eps_rel=self.eps_rel)


_TEST2_OVERRIDES = dict(p0=-15.3, a_vg=0.627, n_vg=1.4, q_star=-0.175)

SCHEMA_VERSION = 1

_SECTIONS = {
    "scenario": {
        "name": str, "nx": int, "ny": int, "lx": float, "ly": float,
        "inflow_width": float, "schema_version": int,
    },
    "physics": {
        "e": float, "nu": float, "p0": float, "phi0": float, "a_vg": float,
        "n_vg": float, "kappa": float, "mu_w": float, "gx": float, "gy": float,
        "rho_w": float, "rho_b": float, "alpha": "float_list", "n": float,
        "q_star": float,
    },
    "numerics": {
        "tau": float, "t": float, "eps_abs": float, "eps_rel": float,
        "max_iters": int,
    },
    "sweep": {"schemes": "str_list", "depths": "int_list", "workers": int},
    "output": {"dir": str, "fields": str},
}

_ATTR = {
    ("scenario", "name"): "scenario", ("scenario", "lx"): "Lx",
    ("scenario", "ly"): "Ly", ("physics", "e"): "E", ("physics", "n"): "N",
    ("physics", "alpha"): "alphas", ("numerics", "t"): "T",
    ("output", "dir"): "out_dir",
}


def _parse(kind, raw, path):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is str:
            return raw.strip()
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if kind == "float_list":
            return tuple(float(s) for s in items)
        if kind == "int_list":
            return tuple(int(s) for s in items)
        return tuple(items)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r}") from exc


def default_config(scenario: str = "test1") -> ScenarioConfig:
    """Built-in defaults of one of the named scenarios."""
    config = ScenarioConfig(scenario=scenario)
    if scenario == "test2":
        config = replace(config, **_TEST2_OVERRIDES)
    return config.validate()


def load_config(path) -> ScenarioConfig:
    """Read a key = value INI file and apply scenario defaults for omitted
    keys.  An empty file yields the full test1 configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        known = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown key")
            attr = _ATTR.get((section, key), key)
            overrides[attr] = _parse(known[key], raw, f"{section}.{key}")

    if overrides.pop("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError("scenario.schema_version: unsupported schema version")
    scenario = overrides.pop("scenario", "test1")
    config = default_config(scenario) if scenario != "custom" else ScenarioConfig(
        scenario="custom"
    )
    config = replace(config, **overrides)
    return config.validate()
