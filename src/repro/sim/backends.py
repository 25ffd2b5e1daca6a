"""Engine backend registry: the seam every event core plugs into.

Two interchangeable event cores implement the same queue surface and
drive the same :class:`repro.sim.engine.Engine` contract:

* ``"heap"`` — the pure-Python heap + same-cycle-lane queue
  (:mod:`repro.sim.event` / :mod:`repro.sim.engine`).  Always available;
  it is the parity oracle the compiled backend is pinned against.
* ``"compiled"`` — the optional C extension event core
  (:mod:`repro.sim.compiled`, backed by ``repro.sim._ckernel``).  Only
  selectable when the extension was built; the build is strictly
  optional and its absence degrades to the heap oracle.

Selection goes through :func:`resolve_backend`, which validates eagerly:
an unknown backend name — or ``"compiled"`` on a host where the
extension is not built — raises :class:`ConfigError` naming the
available backends *before* any engine or machine is constructed,
instead of failing deep inside engine wiring.  The
``REPRO_ENGINE_BACKEND`` environment variable overrides the configured
value, which is how CI replays the entire golden/parity suite on the
compiled backend with no test changes.

A backend's queue provides two inserts — ``_sched(now, time, callback,
args)`` (fire-and-forget, priority 0 at ``max(time, now)``) and
``push(event, lane)`` (an :class:`repro.sim.event.Event` cancel handle)
— plus ``_note_cancel``, ``peek_time``, ``snapshot``, O(1) ``len`` and
a pickling contract that snapshot fork/restore round-trips
byte-identically.  Semantics are pinned by the heap oracle
(:class:`repro.sim.event.EventQueue`).  The engine adds the scheduling
methods (``schedule``/``post``/``post_at``) on top of those inserts, the
run loop with budget/watchdog hooks, and the pause-only pickling
contract (see ``Engine.__getstate__``).
"""

from __future__ import annotations

import os

from repro.sim.engine import Engine, SimulationError

#: Environment override for the engine backend.  Lets CI run the entire
#: golden/parity suite against an alternate backend with no test changes
#: (the ``compiled-parity`` job sets it).
BACKEND_ENV = "REPRO_ENGINE_BACKEND"

#: Every backend name the registry knows.  ``available_backends()``
#: filters this down to what the current host can actually construct.
ENGINE_BACKENDS = ("heap", "compiled")


class ConfigError(SimulationError, ValueError):
    """Invalid engine/backend configuration, raised before wiring begins.

    Subclasses both :class:`SimulationError` (the simulator's error
    hierarchy) and :class:`ValueError` (what config validation and the
    CLI's top-level handler historically catch), so every existing
    caller keeps working while new code can catch the precise type.
    """


def compiled_available() -> bool:
    """True when the optional ``repro.sim._ckernel`` extension imports."""
    from repro.sim.compiled import is_available

    return is_available()


def available_backends() -> tuple:
    """Backend names constructible on this host, in registry order."""
    return tuple(
        name for name in ENGINE_BACKENDS
        if name != "compiled" or compiled_available()
    )


def resolve_backend(configured: str = "heap") -> str:
    """The effective backend: the env override, else the config value.

    Validation is eager and complete: both an unknown name and a
    ``"compiled"`` request without the built extension raise
    :class:`ConfigError` here, naming the valid/available choices, so a
    bad ``--engine-backend`` flag or ``REPRO_ENGINE_BACKEND`` value
    fails at configuration time rather than deep inside engine
    construction.
    """
    backend = os.environ.get(BACKEND_ENV) or configured
    if backend not in ENGINE_BACKENDS:
        raise ConfigError(
            f"unknown engine backend {backend!r}; "
            f"valid choices: {', '.join(ENGINE_BACKENDS)}"
        )
    if backend == "compiled" and not compiled_available():
        raise ConfigError(
            "engine backend 'compiled' requested but the repro.sim._ckernel "
            "extension is not built (run 'make ext' or "
            "'python setup.py build_ext --inplace'); "
            f"available backends: {', '.join(available_backends())}"
        )
    return backend


def build_engine(backend: str = "heap") -> Engine:
    """Construct the engine for a resolved backend name."""
    if backend == "compiled":
        from repro.sim.compiled import CompiledEngine

        return CompiledEngine()
    return Engine()
