"""Parameter ingestion, validation, and the absorption-coefficient table.

Config files are flat ``key = value`` text ('#' starts a comment).  All
units are SI (Hz, s, m, W); dBm and km/h inputs are accepted through
explicit ``_dbm`` / ``_kmh`` key suffixes and converted at load time.

The absorption coefficient K is resolved once at the carrier frequency and
carried as a scalar afterwards.  A small sample table ships with the
package; every value in it is synthetic and only fixes a plausible order
of magnitude for tests and demos.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

__all__ = [
    "C_LIGHT",
    "SystemParams",
    "Deployment",
    "AbsorptionTable",
    "ConfigError",
    "load_config",
    "dump_config",
    "default_system",
    "default_deployment",
    "absorption_at",
    "bundled_absorption_table",
    "dbm_to_watts",
    "kmh_to_mps",
]

# Speed of light as used throughout; the reference numerology tables round
# to 3e8 and the derived fixtures follow suit.
C_LIGHT = 3.0e8


class ConfigError(ValueError):
    """Config file failed to parse or violates a parameter invariant."""


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def kmh_to_mps(v_kmh: float) -> float:
    return v_kmh / 3.6


@dataclass(frozen=True)
class SystemParams:
    """Waveform numerology and radio constants.

    Attributes:
        f_c: Carrier frequency [Hz].
        f_scs: Subcarrier spacing [Hz].
        t_sym: OFDM symbol length [s].
        tau: Beam-sweep burst period [s].
        b_ssb: Sweep-block bandwidth [Hz].
        t_ssb: Sweep-block duration [s].
        n_rs: Number of resource elements reserved for tracking pilots.
        b_tot: Available bandwidth [Hz].
        t_tot: Data duration [s].
        p_t: Transmit power [W].
        thermal_noise_density: Thermal noise density [W/Hz].
        k_abs: Molecular absorption coefficient at f_c [1/m].
    """

    f_c: float = 0.34e12
    f_scs: float = 1.92e6
    t_sym: float = 4.46e-6
    tau: float = 20e-3
    b_ssb: float = 240 * 1.92e6
    t_ssb: float = 17.84e-6
    n_rs: int = 5000
    b_tot: float = 1e9
    t_tot: float = 20e-3
    p_t: float = dbm_to_watts(23.0)
    thermal_noise_density: float = dbm_to_watts(-174.0)
    k_abs: float = 0.35

    def __post_init__(self):
        for name in ("f_c", "f_scs", "t_sym", "tau", "b_ssb", "t_ssb",
                     "b_tot", "t_tot", "p_t", "thermal_noise_density", "k_abs"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"SystemParams.{name} must be > 0")
        if not self.n_rs >= 1:
            raise ConfigError("SystemParams.n_rs must be >= 1")
        if self.b_ssb > self.b_tot:
            raise ConfigError("SystemParams.b_ssb must not exceed b_tot")
        if self.t_ssb > self.tau:
            raise ConfigError("SystemParams.t_ssb must not exceed tau")

    @property
    def thermal_noise_power(self) -> float:
        """Thermal noise over the full band, density * b_tot [W]."""
        return self.thermal_noise_density * self.b_tot

    @property
    def subcarrier_cap(self) -> int:
        """Whole subcarriers that fit the band, floor(b_tot / f_scs)."""
        return math.floor(self.b_tot / self.f_scs + 1e-9)

    @property
    def symbol_cap(self) -> int:
        """Whole symbols that fit the data duration, floor(t_tot / t_sym)."""
        return math.floor(self.t_tot / self.t_sym + 1e-9)


@dataclass(frozen=True)
class Deployment:
    """Stochastic-geometry scene parameters.

    Densities are per square metre; beams are ideal cones with width
    2*pi/n at each side.
    """

    lambda_b: float = 2e-3
    lambda_m: float = 5e-3
    lambda_s: float = 1.5e-2
    r_b: float = 0.5
    n_b: int = 128
    n_m: int = 128
    v: float = kmh_to_mps(70.0)

    def __post_init__(self):
        # written as `not x >= 0` so that NaN fails them too
        for name in ("lambda_b", "lambda_m", "lambda_s"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"Deployment.{name} must be >= 0")
        if not self.r_b > 0.0:
            raise ConfigError("Deployment.r_b must be > 0")
        # beamwidth 2*pi/n must stay strictly below pi/2
        for name in ("n_b", "n_m"):
            if not getattr(self, name) > 4:
                raise ConfigError(
                    f"Deployment.{name} must exceed 4 (beamwidth below pi/2)")
        if not self.v >= 0.0:
            raise ConfigError("Deployment.v must be >= 0")

    @property
    def theta_b(self) -> float:
        return 2.0 * math.pi / self.n_b

    @property
    def theta_m(self) -> float:
        return 2.0 * math.pi / self.n_m

    @property
    def obstacle_density(self) -> float:
        """Density of the fields that block a link, lambda_m + lambda_s."""
        return self.lambda_m + self.lambda_s

    @property
    def total_density(self) -> float:
        """Density of everything that blocks an interferer's line of sight,
        lambda_b + lambda_m + lambda_s (nodes block one another)."""
        return self.lambda_b + self.lambda_m + self.lambda_s


@dataclass(frozen=True)
class AbsorptionTable:
    """Absorption coefficient versus frequency, linearly interpolated."""

    frequencies: tuple
    k_values: tuple

    def __post_init__(self):
        if len(self.frequencies) != len(self.k_values) or len(self.frequencies) < 1:
            raise ConfigError("absorption table needs matching, non-empty columns")
        fs = self.frequencies
        if any(fs[i] >= fs[i + 1] for i in range(len(fs) - 1)):
            raise ConfigError("absorption table frequencies must be strictly increasing")
        if not all(k >= 0 for k in self.k_values):
            raise ConfigError("absorption coefficients must be >= 0")

    @classmethod
    def from_csv(cls, path) -> "AbsorptionTable":
        freqs, ks = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    [c.strip() for c in reader.fieldnames[:2]] != ["frequency_hz", "k_per_m"]:
                raise ConfigError(
                    f"{path}: expected CSV header 'frequency_hz,k_per_m'")
            for row in reader:
                freqs.append(float(row["frequency_hz"]))
                ks.append(float(row["k_per_m"]))
        return cls(tuple(freqs), tuple(ks))


def absorption_at(table: AbsorptionTable, f: float) -> float:
    """Linear interpolation of K at frequency f; no extrapolation."""
    fs, ks = table.frequencies, table.k_values
    if f < fs[0] or f > fs[-1]:
        raise ConfigError(
            f"frequency {f:.4g} Hz outside absorption table range "
            f"[{fs[0]:.4g}, {fs[-1]:.4g}]")
    for i in range(len(fs) - 1):
        if fs[i] <= f <= fs[i + 1]:
            w = (f - fs[i]) / (fs[i + 1] - fs[i])
            return ks[i] * (1.0 - w) + ks[i + 1] * w
    return ks[-1]


def bundled_absorption_table() -> AbsorptionTable:
    """The synthetic sample table shipped with the package."""
    with resources.as_file(resources.files("isacthz.data") / "absorption_sample.csv") as p:
        return AbsorptionTable.from_csv(p)


def default_system() -> SystemParams:
    return SystemParams()


def default_deployment() -> Deployment:
    return Deployment()


# keys accepted in config files, mapped onto the dataclass fields
_SYSTEM_KEYS = {
    "f_c": "f_c", "f_scs": "f_scs", "t_sym": "t_sym", "tau": "tau",
    "b_ssb": "b_ssb", "t_ssb": "t_ssb", "n_rs": "n_rs", "b_tot": "b_tot",
    "t_tot": "t_tot", "p_t": "p_t",
    "thermal_noise_density": "thermal_noise_density",
    "absorption_k": "k_abs",
}
_DEPLOY_KEYS = {
    "lambda_b": "lambda_b", "lambda_m": "lambda_m", "lambda_s": "lambda_s",
    "r_b": "r_b", "n_b": "n_b", "n_m": "n_m", "v": "v",
}
_INT_FIELDS = {"n_rs", "n_b", "n_m"}


def _parse_kv(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if not key or not val:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: key '{key}' is set twice")
            values[key] = val
    return values


def load_config(path=None):
    """Load (SystemParams, Deployment) from a key=value file.

    Missing keys fall back to the reference defaults; an absent or empty
    file therefore yields the full default parameter set.  Values must be
    finite, and no field may be set twice (say, by ``p_t`` and ``p_t_dbm``).
    K is taken from an explicit ``absorption_k`` key when present, otherwise
    interpolated at f_c from ``absorption_table = <csv path>`` or the
    bundled sample.
    """
    raw = _parse_kv(path) if path is not None else {}

    sys_kwargs, dep_kwargs = {}, {}
    table_path = raw.pop("absorption_table", None)
    for key, val in raw.items():
        base, conv = key, None
        if key.endswith("_dbm"):
            base, conv = key[:-4], dbm_to_watts
        elif key.endswith("_kmh"):
            base, conv = key[:-4], kmh_to_mps
        if base in _SYSTEM_KEYS:
            field = _SYSTEM_KEYS[base]
            target = sys_kwargs
        elif base in _DEPLOY_KEYS:
            field = _DEPLOY_KEYS[base]
            target = dep_kwargs
        else:
            raise ConfigError(f"unknown config key '{key}'")
        try:
            num = float(val) if conv is None else conv(float(val))
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': not a number: {val!r}") from exc
        except OverflowError as exc:  # 10 ** (dBm / 10) past the float range
            raise ConfigError(f"config key '{key}' must be finite: {val!r}") from exc
        if not math.isfinite(num):
            raise ConfigError(f"config key '{key}' must be finite: {val!r}")
        if field in target:
            raise ConfigError(f"config key '{key}' sets {field}, which another key set")
        if field in _INT_FIELDS:
            if num != int(num):
                raise ConfigError(f"config key '{key}' must be an integer")
            num = int(num)
        target[field] = num

    # the sweep-block bandwidth default tracks the subcarrier spacing
    if "b_ssb" not in sys_kwargs and "f_scs" in sys_kwargs:
        sys_kwargs["b_ssb"] = 240.0 * sys_kwargs["f_scs"]

    if "k_abs" not in sys_kwargs:
        table = (bundled_absorption_table() if table_path is None
                 else AbsorptionTable.from_csv(table_path))
        f_c = sys_kwargs.get("f_c", SystemParams.f_c)
        sys_kwargs["k_abs"] = absorption_at(table, f_c)

    system = SystemParams(**sys_kwargs)
    deploy = Deployment(**dep_kwargs)
    return system, deploy


def dump_config(system: SystemParams, deploy: Deployment, path) -> None:
    """Write a config file that load_config reads back to identical values."""
    inv_sys = {v: k for k, v in _SYSTEM_KEYS.items()}
    lines = ["# isac-thz configuration (SI units)"]
    for field, key in sorted(inv_sys.items(), key=lambda kv: kv[1]):
        val = getattr(system, field)
        lines.append(f"{key} = {val!r}")
    for key, field in sorted(_DEPLOY_KEYS.items()):
        lines.append(f"{key} = {getattr(deploy, field)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
