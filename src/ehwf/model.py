"""Problem instances, battery bookkeeping, feasibility checks, and the objective.

Contents
--------
Scenario, UserEnv     immutable problem data (per-slot harvest/gain, caps)
FeasibilityReport     outcome of a constraint check
energy_scale          the power of two every feasibility tolerance scales by
cumulative_harvest    per-slot increments -> running totals
user_battery_trace    end-of-slot battery levels, no clamping
check_feasible        check a (transmission, wastage) pair
sum_rate              the objective, in nats

Energy is stored per slot (increments); cumulative views are derived on
demand so the two representations cannot drift apart.

The problem has no unit of energy: harvest, caps and schedules times s
with gains over s is the same problem.  So no check compares energies
against an absolute number.  Each allows FEAS_TOL times energy_scale of
the energies it checks: the solver's of its budget, the checkers' of the
user's cumulative harvest.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FEAS_TOL",
    "Scenario",
    "UserEnv",
    "FeasibilityReport",
    "energy_scale",
    "cumulative_harvest",
    "user_battery_trace",
    "check_feasible",
    "sum_rate",
]

# Relative tolerance for every constraint comparison: a check allows
# FEAS_TOL times energy_scale of its energies, so the same schedule in
# another unit gets the same verdict.  Floating-point water levels
# routinely land exactly on a constraint boundary, so exact tests are
# unreliable.
FEAS_TOL = 1e-9

# Gains below this cannot be priced: their inverse overflows the double
# range.  Such slots are treated exactly like zero-gain slots.
GAIN_FLOOR = 1.0 / sys.float_info.max


def energy_scale(cum_energy) -> float:
    """The power of two nearest the mean energy per slot of a cumulative series.

    1 when the series is empty or its total is 0.  Dividing by a power of
    two is exact in floating point; FEAS_TOL times this scale is the
    tolerance of every feasibility check.
    """
    k_slots = len(cum_energy)
    mean = float(cum_energy[-1]) / k_slots if k_slots else 0.0  # 0 for a subnormal total too
    return 2.0 ** round(math.log2(mean)) if mean > 0.0 else 1.0


def _float_array(x, name):
    # numpy's own conversion errors, for a dict, a complex or an integer
    # past float range, become the ValueError every bad entry raises
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must hold real numbers: {exc}") from None


def _as_float_array(x, name, ndim):
    arr = _float_array(x, name)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _check_entries(harvest, gain, caps):
    # One reduction per bound when all is well (NaN propagates through min
    # and max and fails every comparison); the message is worked out only
    # on failure.  A zero cap forces slot-by-slot spending and an infinite
    # one means "no limit".  Every solver and checker takes the harvest's
    # running total, so it must stay finite: K entries of at most float
    # max / 2K cannot overflow it.  No user spends more than its total in a
    # slot, so the received power sum_n gain[n, k] * total_n bounds every
    # slot's, and it must stay finite too: N K max(harvest) max(gain) bounds
    # it in turn.  Only an input past either cheap bound pays for the exact
    # tests.
    k_slots = harvest.shape[-1]
    if k_slots == 0:
        raise ValueError("harvest and gain must cover at least one slot, got 0")
    top_harvest, top_gain = float(harvest.max()), float(gain.max())
    if (harvest.min() >= 0 and top_harvest <= sys.float_info.max / (2 * k_slots)
            and gain.min() >= 0 and top_gain < math.inf
            and all(cap >= 0 for cap in caps)
            and top_harvest * top_gain * harvest.size < sys.float_info.max / 2):
        return
    if not (np.isfinite(harvest).all() and np.isfinite(gain).all()):
        raise ValueError("harvest and gain entries must be finite")
    if any(map(math.isnan, caps)):
        raise ValueError("battery_max and power_max must not be NaN")
    if any(cap < 0 for cap in caps):
        raise ValueError("battery_max and power_max must be nonnegative")
    if not ((harvest >= 0).all() and (gain >= 0).all()):
        raise ValueError("harvest and gain entries must be nonnegative")
    with np.errstate(over="ignore"):
        totals = cumulative_harvest(harvest.reshape(-1, k_slots))[:, -1:]
    if not (totals < math.inf).all():
        raise ValueError("the running total of harvest overflows the float range")
    with np.errstate(over="ignore"):
        received = np.sum(totals * gain.reshape(-1, k_slots), axis=0)
    if not (received < math.inf).all():
        raise ValueError("the received power overflows the float range: in some "
                         "slot, the users' gains times their total harvests sum "
                         "past it")


@dataclass(frozen=True)
class UserEnv:
    """One transmitter's problem data.

    Parameters
    ----------
    harvest : array of shape (K,), K >= 1
        Energy harvested during each slot (increments, not running totals),
        each nonnegative and with a finite running total.
    gain : array of shape (K,)
        Magnitude-squared channel gain per slot.  May be an effective gain
        already discounted for other users' interference.
    battery_max : float
        Battery capacity.  Zero is allowed and forces slot-by-slot
        consumption.
    power_max : float
        Per-slot energy consumption cap.
    """

    harvest: np.ndarray
    gain: np.ndarray
    battery_max: float
    power_max: float

    def __post_init__(self):
        harvest = _as_float_array(self.harvest, "harvest", 1)
        gain = _as_float_array(self.gain, "gain", 1)
        if harvest.shape != gain.shape:
            raise ValueError("harvest and gain must have the same length")
        # each cap converts as a Scenario's row of caps does
        bmax = float(_as_float_array(self.battery_max, "battery_max", 0))
        cap = float(_as_float_array(self.power_max, "power_max", 0))
        _check_entries(harvest, gain, (bmax, cap))
        harvest.setflags(write=False)
        gain.setflags(write=False)
        object.__setattr__(self, "harvest", harvest)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "battery_max", bmax)
        object.__setattr__(self, "power_max", cap)

    @property
    def num_slots(self) -> int:
        return self.harvest.size


@dataclass(frozen=True)
class Scenario:
    """An immutable N-user, K-slot problem instance.

    harvest[n, k] and gain[n, k] are per-slot values for N >= 1 users over
    K >= 1 slots, with the entries UserEnv takes; battery_max[n] and
    power_max[n] are per-user caps, each nonnegative or infinite as in
    UserEnv.
    """

    harvest: np.ndarray
    gain: np.ndarray
    battery_max: np.ndarray
    power_max: np.ndarray

    def __post_init__(self):
        harvest = _as_float_array(self.harvest, "harvest", 2)
        gain = _as_float_array(self.gain, "gain", 2)
        battery_max = _as_float_array(self.battery_max, "battery_max", 1)
        power_max = _as_float_array(self.power_max, "power_max", 1)
        n, k = harvest.shape
        if n == 0:
            raise ValueError("a scenario needs at least one user, got 0")
        if gain.shape != (n, k):
            raise ValueError("gain shape does not match harvest shape")
        if battery_max.shape != (n,) or power_max.shape != (n,):
            raise ValueError("battery_max and power_max must have one entry per user")
        _check_entries(harvest, gain, battery_max.tolist() + power_max.tolist())
        for arr, nm in ((harvest, "harvest"), (gain, "gain"),
                        (battery_max, "battery_max"), (power_max, "power_max")):
            arr.setflags(write=False)
            object.__setattr__(self, nm, arr)

    @property
    def num_users(self) -> int:
        return self.harvest.shape[0]

    @property
    def num_slots(self) -> int:
        return self.harvest.shape[1]

    def user(self, n: int) -> UserEnv:
        """Slice out user n's data.

        n must be an integer (a Python or numpy one, not a bool) in
        0 .. N-1; anything else raises ValueError.
        """
        if not _is_index(n, self.num_users):
            raise ValueError(f"need a user in 0..{self.num_users - 1}, got {n!r}")
        return UserEnv(self.harvest[n], self.gain[n],
                       float(self.battery_max[n]), float(self.power_max[n]))

    # -- canonical JSON format ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "num_users": self.num_users,
            "num_slots": self.num_slots,
            "users": [
                {
                    "harvest": self.harvest[n].tolist(),
                    "gain": self.gain[n].tolist(),
                    "battery_max": _cap_to_json(self.battery_max[n]),
                    "power_max": _cap_to_json(self.power_max[n]),
                }
                for n in range(self.num_users)
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        # strict JSON: an unbounded cap is written as null, never Infinity
        return json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Scenario":
        """Read to_json_dict output, holding it to JSON's types.

        Counts must be integers, harvest and gain lists of numbers, and each
        cap a number or null (unbounded); a bool or a string is not a
        number.  Anything else raises ValueError.
        """
        try:
            users = obj["users"]
            n, k = obj["num_users"], obj["num_slots"]
            if not isinstance(users, list):
                raise TypeError(f"users must be a list, not {type(users).__name__}")
            fields = {key: [u[key] for u in users]
                      for key in ("harvest", "gain", "battery_max", "power_max")}
            if not (type(n) is int and type(k) is int):     # not bool either
                raise TypeError(f"num_users and num_slots must be integers, "
                                f"got {n!r} and {k!r}")
            rows = fields["harvest"] + fields["gain"]
            if not all(isinstance(row, list) and all(map(_is_json_number, row))
                       for row in rows):
                raise TypeError("harvest and gain must be lists of numbers")
            caps = fields["battery_max"] + fields["power_max"]
            if not all(cap is None or _is_json_number(cap) for cap in caps):
                raise TypeError("battery_max and power_max must be numbers or null")
            if len(users) != n:
                raise ValueError(f"scenario declares {n} users but lists {len(users)}")
            if any(len(row) != k for row in rows):
                raise ValueError("user vectors do not match the declared num_slots")
            # a JSON integer past float range overflows here; shaped (n, k),
            # no users (with any num_slots) meet Scenario's own check
            shape = (n, max(k, 0))
            return cls(
                harvest=np.array(fields["harvest"], dtype=float).reshape(shape),
                gain=np.array(fields["gain"], dtype=float).reshape(shape),
                battery_max=np.array([_cap_from_json(c) for c in fields["battery_max"]]),
                power_max=np.array([_cap_from_json(c) for c in fields["power_max"]]),
            )
        except KeyError as exc:
            raise ValueError(f"malformed scenario object: missing key {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed scenario object: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Read to_json output; older files spelling a cap Infinity still load."""
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def single_user(cls, env: UserEnv) -> "Scenario":
        """Wrap a single-user environment as an N=1 scenario."""
        return cls(env.harvest[None, :], env.gain[None, :],
                   np.array([env.battery_max]), np.array([env.power_max]))


def _cap_to_json(cap):
    # an unbounded cap has no JSON number; null stands for it
    return float(cap) if np.isfinite(cap) else None


def _cap_from_json(cap) -> float:
    return math.inf if cap is None else float(cap)


def _is_integer(x) -> bool:
    # an integer, Python's or numpy's, but not a bool
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_index(n, size: int) -> bool:
    # an integer in 0 .. size-1
    return _is_integer(n) and 0 <= n < size


def _is_json_number(x) -> bool:
    # bool is a subclass of int, but true and false are not JSON numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of check_feasible on an energy schedule.

    Each violation is a (user, slot, kind, magnitude) tuple; ok is whether
    there are none.
    """

    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def cumulative_harvest(harvest) -> np.ndarray:
    """Running total of per-slot harvested energy (along the last axis)."""
    return np.cumsum(np.asarray(harvest, dtype=float), axis=-1)


def user_battery_trace(harvest, p, d=None) -> np.ndarray:
    """End-of-slot battery levels from per-slot vectors, along the last axis.

    level[..., k] = harvested-through-k - consumed-through-k -
    wasted-through-k, for one user's vectors or a row per user.  No
    clamping: an infeasible schedule shows up as a level outside
    [0, battery_max], which `check_feasible` then flags.
    """
    harvest = np.asarray(harvest, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.shape != harvest.shape:
        raise ValueError("p must have one entry per slot")
    total = np.cumsum(harvest - p, axis=-1)
    if d is not None:
        d = np.asarray(d, dtype=float)
        if d.shape != harvest.shape:
            raise ValueError("d must have one entry per slot")
        total -= np.cumsum(d, axis=-1)
    return total


def check_feasible(scenario: Scenario, p, d) -> FeasibilityReport:
    """Check every constraint of the schedule pair (p, d).

    Constraints per user and slot: p and d finite, 0 <= p <= power_max,
    d >= 0, and the battery level stays within [0, battery_max].  A
    non-finite entry is a violation of infinite magnitude, as in
    verify.ReducedPolytope.violation.  Each user's are checked
    within FEAS_TOL times energy_scale of its cumulative harvest, the
    tolerance of verify.ReducedPolytope.contains.  This check cannot just
    ask the polytope: it checks the wastage d the caller supplies, while
    the polytope eliminates d and asks only whether some d exists.

    It is one vectorised pass; violations come out by user, slot and the
    kinds' order below.  Non-finite entries raise no numpy warning, and a
    battery sum that mixes +inf and -inf into NaN flags nothing itself.
    """
    p = _as_float_array(p, "p", 2)
    d = _as_float_array(d, "d", 2)
    shape = (scenario.num_users, scenario.num_slots)
    if p.shape != shape or d.shape != shape:
        raise ValueError(f"schedules must have shape {shape}")

    tol = FEAS_TOL * np.array([[energy_scale(row)]
                               for row in cumulative_harvest(scenario.harvest)])
    cap = scenario.power_max[:, None]
    bmax = scenario.battery_max[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        levels = user_battery_trace(scenario.harvest, p, d)
        # NaN fails every comparison, so non-finite entries get their own test
        inf = np.full(shape, math.inf)
        checks = (
            ("power-non-finite", ~np.isfinite(p), inf),
            ("wastage-non-finite", ~np.isfinite(d), inf),
            ("power-negative", p < -tol, -p),
            ("power-above-cap", p > cap + tol, p - cap),
            ("wastage-negative", d < -tol, -d),
            ("battery-negative", levels < -tol, -levels),
            ("battery-above-cap", levels > bmax + tol, levels - bmax),
        )
        masks = np.stack([mask for _, mask, _ in checks], axis=-1)
        magnitudes = np.stack([mag for _, _, mag in checks], axis=-1)[masks]
    return FeasibilityReport(violations=tuple(
        (n, k, checks[i][0], m)
        for (n, k, i), m in zip(np.argwhere(masks).tolist(), magnitudes.tolist())))


def sum_rate(scenario: Scenario, p) -> float:
    """Sum over slots of ln(1 + sum_n p[n,k] * gain[n,k]), in nats."""
    p = _as_float_array(p, "p", 2)
    if p.shape != scenario.gain.shape:
        raise ValueError("p shape does not match the scenario")
    return float(np.sum(np.log1p(np.sum(p * scenario.gain, axis=0))))
