"""Parameter ingestion and validation.

Config files are flat ``key = value`` text ('#' starts a comment).  Each
key is the name of a `SystemParams` or `Deployment` field, in SI units
(Hz, s, m, W).  Three fields may instead be given in dBm or km/h, through
the keys ``p_t_dbm``, ``thermal_noise_density_dbm`` and ``v_kmh``,
converted at load time.

The absorption coefficient K is resolved once at the carrier frequency and
carried as a scalar afterwards: from the key ``k_abs``, or by linear
interpolation (no extrapolation) in the two-column ``frequency_hz,k_per_m``
CSV that the key ``absorption_table`` names.  A malformed CSV row is a
`ConfigError` naming the file and line.  Without either key, K comes from a
small sample table shipped with the package; every value in it is synthetic
and only fixes a plausible order of magnitude for tests and demos.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

__all__ = [
    "C_LIGHT",
    "SystemParams",
    "Deployment",
    "ConfigError",
    "load_config",
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


def _absorption_k(table, f: float) -> float:
    """K at frequency f, linearly interpolated in a 'frequency_hz,k_per_m'
    CSV (a path or a package resource); no extrapolation."""
    fs, ks = [], []
    with table.open(newline="") as fh:
        reader = csv.reader(fh)
        if [c.strip() for c in next(reader, [])[:2]] != ["frequency_hz", "k_per_m"]:
            raise ConfigError(f"{table}:1: expected CSV header 'frequency_hz,k_per_m'")
        for row in reader:
            if not row:
                continue
            where = f"{table}:{reader.line_num}"
            if len(row) < 2:
                raise ConfigError(f"{where}: expected 'frequency_hz,k_per_m' values")
            try:
                fq, k = float(row[0]), float(row[1])
            except ValueError as exc:
                raise ConfigError(f"{where}: not a number: {row[:2]!r}") from exc
            if not (math.isfinite(fq) and math.isfinite(k)):
                raise ConfigError(f"{where}: values must be finite")
            if k < 0.0:
                raise ConfigError(f"{where}: absorption coefficients must be >= 0")
            if fs and fq <= fs[-1]:
                raise ConfigError(f"{where}: frequencies must be strictly increasing")
            fs.append(fq)
            ks.append(k)
    if not fs:
        raise ConfigError(f"{table}: absorption table has no rows")
    if f < fs[0] or f > fs[-1]:
        raise ConfigError(
            f"{table}: frequency {f:.4g} Hz outside absorption table range "
            f"[{fs[0]:.4g}, {fs[-1]:.4g}]")
    for i in range(len(fs) - 1):
        if fs[i] <= f <= fs[i + 1]:
            w = (f - fs[i]) / (fs[i + 1] - fs[i])
            return ks[i] * (1.0 - w) + ks[i + 1] * w
    return ks[-1]


# config key -> (dataclass, field): every field under its own name
_FIELDS = {f.name: (cls, f) for cls in (SystemParams, Deployment)
           for f in fields(cls)}
# the keys that take a unit suffix, with its conversion to SI
_UNIT_KEYS = {"p_t_dbm": dbm_to_watts, "thermal_noise_density_dbm": dbm_to_watts,
              "v_kmh": kmh_to_mps}


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
    K is taken from an explicit ``k_abs`` key or interpolated at f_c in
    ``absorption_table = <csv path>`` (setting both is an error; a
    relative path is taken from the config file's directory), and
    otherwise interpolated in the bundled sample.
    """
    raw = _parse_kv(path) if path is not None else {}

    kwargs = {SystemParams: {}, Deployment: {}}
    table_path = raw.pop("absorption_table", None)
    for key, val in raw.items():
        conv = _UNIT_KEYS.get(key)
        name = key if conv is None else key[:-4]
        if name not in _FIELDS:
            raise ConfigError(f"unknown config key '{key}'")
        cls, field = _FIELDS[name]
        target = kwargs[cls]
        try:
            num = float(val) if conv is None else conv(float(val))
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': not a number: {val!r}") from exc
        except OverflowError as exc:  # 10 ** (dBm / 10) past the float range
            raise ConfigError(f"config key '{key}' must be finite: {val!r}") from exc
        if not math.isfinite(num):
            raise ConfigError(f"config key '{key}' must be finite: {val!r}")
        if name in target:
            raise ConfigError(f"config key '{key}' sets {name}, which another key set")
        # annotations are strings under `from __future__ import annotations`
        if field.type in (int, "int"):
            if num != int(num):
                raise ConfigError(f"config key '{key}' must be an integer")
            num = int(num)
        target[name] = num

    sys_kwargs = kwargs[SystemParams]
    # the sweep-block bandwidth default tracks the subcarrier spacing
    if "b_ssb" not in sys_kwargs and "f_scs" in sys_kwargs:
        sys_kwargs["b_ssb"] = 240.0 * sys_kwargs["f_scs"]

    if "k_abs" not in sys_kwargs:
        # a relative table path is read beside the config file
        table = (resources.files("isacthz.data") / "absorption_sample.csv"
                 if table_path is None else Path(path).parent / table_path)
        sys_kwargs["k_abs"] = _absorption_k(table, sys_kwargs.get("f_c", SystemParams.f_c))
    elif table_path is not None:
        raise ConfigError("config key 'absorption_table' sets k_abs, which another key set")

    return SystemParams(**sys_kwargs), Deployment(**kwargs[Deployment])
