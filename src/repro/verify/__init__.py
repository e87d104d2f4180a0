"""Independent happens-before conformance oracle for the SVM protocols.

The protocol engines in :mod:`repro.protocol` are the *system under test*;
this package is the referee.  When a run is started with
``ClusterConfig(verify=True)`` (or ``repro run --verify``) the protocols
emit a passive event stream into a :class:`~repro.verify.events.VerifyLog`,
and after the simulation finishes
:func:`~repro.verify.oracle.check_log` replays the stream against a simple,
obviously-correct memory model — shadow vector clocks and per-page writer
histories kept in plain Python lists, deliberately sharing *no* code with
the protocol's own :mod:`~repro.protocol.timestamps` machinery so a bug
there cannot blind the checker.

Violations come back as structured
:class:`~repro.verify.oracle.ConsistencyViolation` records (page,
processors, epochs, offending event index) surfaced on
``RunResult.violations`` and in ``RunResult.meta``; the CLI exits non-zero
and a replayable JSON artifact is dropped under ``results/violations/``.

See ``docs/verification.md`` for the happens-before model and the full
list of invariants.
"""

from repro.verify.events import VerifyLog

__all__ = ["VerifyLog", "check_log"]


def check_log(records, **kwargs):
    """Replay ``records`` through :func:`repro.verify.oracle.check_log`.

    Every protocol module imports :mod:`repro.verify.events`, and with it
    this package, so the oracle is imported here, by the first run that
    checks a log, not by every process that simulates.  ``run_simulation``
    calls the oracle through this name, which the benchmark's per-layer
    ledger (``perfbench/ledger.py``) wraps to time it.
    """
    from repro.verify.oracle import check_log as replay

    return replay(records, **kwargs)
