"""Water-filling power schedules for energy-harvesting transmitters.

Solvers for maximum-sum-rate transmission over fading multiple-access
channels where each transmitter harvests energy into a finite battery
and is limited by a per-slot power cap.  The package provides the exact
single-user schedule, a best-response solver for many users, baseline
policies, optimality certificates, and a benchmark harness (CLI: ehwf).

Each submodule's __all__ is the one list of its public names; the
package re-exports them all.
"""

from . import baselines, bench, mac, model, single_user, verify
from .model import *
from .single_user import *
from .mac import *
from .baselines import *
from .verify import *
from .bench import *

__version__ = "0.1.0"

__all__ = [name for module in (model, single_user, mac, baselines, verify, bench)
           for name in module.__all__]
