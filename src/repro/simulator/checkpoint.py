"""Versioned, fingerprinted checkpoints of a running simulation.

A checkpoint captures the **complete** mutable state of a
:class:`~repro.simulator.runtime.CoflowSimulation` mid-run — the event
queue (including the monotonic watermark and the sequence counter),
the incremental
:class:`~repro.simulator.bandwidth.engine.AllocationState`, every
job/coflow/flow progress record, the scheduler's state via the
:meth:`~repro.schedulers.base.SchedulerPolicy.snapshot_state` contract,
the ECMP router with its route caches and generation counter, the fault
injector's timeline position and degradation counters, and the
deterministic stream offsets (the HR round index and event sequence
numbers — fault streams themselves are stateless counter-indexed
hashes, so those counters *are* the complete RNG position.)

The hard guarantee, enforced by the parity suite
(``tests/integration/test_checkpoint_parity.py``): **restore → run to
completion is bit-identical to the uninterrupted run** — same JCTs,
same event counts, same engine counters.

Serialization discipline
------------------------

The snapshot payload is pickled **whole, in one pass, at a pinned
protocol**.  One pass matters: pickle's memo preserves cross-component
reference sharing, e.g. the fault injector's live downed-link set that
the router aliases, and the scheduler context's views onto the job
dicts — a restored graph has exactly the original aliasing without any
manual rewiring.  What does *not* survive a checkpoint, by design:
host-side instrumentation (observability probes monkeypatch bound
methods onto the instance and are deliberately excluded from
snapshots) and logger configuration (recomputed on restore).

On-disk format (all one pickle stream)::

    {"magic": "repro-checkpoint", "schema": 1,
     "fingerprint": blake2b(body), "meta": {...}, "body": bytes}

where ``body`` is the pickled snapshot payload.  Files are written
atomically (temp file + ``os.replace``) so a crash mid-write leaves
either the previous complete checkpoint or none — never a torn one.
The fingerprint is an *integrity* check detecting truncation and
corruption on read; any mismatch, schema skew, or unpicklable content
raises :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, Optional, Union

from repro.errors import CheckpointError
from repro.simulator.runtime import CoflowSimulation

__all__ = [
    "CHECKPOINT_SCHEMA",
    "read_checkpoint",
    "restore_simulation",
    "write_checkpoint",
]

#: Schema version of the on-disk checkpoint format.  Bump on any change
#: to the snapshot payload structure; readers reject other versions
#: rather than guessing.
CHECKPOINT_SCHEMA = 1

_MAGIC = "repro-checkpoint"

#: Pinned pickle protocol: checkpoints written by one interpreter must
#: load on any other supported one, so the protocol never floats with
#: ``pickle.HIGHEST_PROTOCOL``.
_PICKLE_PROTOCOL = 4


def _fingerprint(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def write_checkpoint(
    sim: CoflowSimulation,
    path: Union[str, "os.PathLike[str]"],
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Atomically write ``sim``'s state to ``path``; returns the fingerprint.

    ``meta`` is an optional caller-owned dict stored verbatim in the
    header (the supervisor records the unit fingerprint and scheduler
    name there); it is *outside* the snapshot body but *inside* the
    integrity envelope only by position — corrupting it is caught by
    the unpickling step, not the body fingerprint.
    """
    body = pickle.dumps(sim.snapshot_state(), protocol=_PICKLE_PROTOCOL)
    fingerprint = _fingerprint(body)
    payload = {
        "magic": _MAGIC,
        "schema": CHECKPOINT_SCHEMA,
        "fingerprint": fingerprint,
        "simulated_time": sim.now,
        "meta": dict(meta) if meta else {},
        "body": body,
    }
    target = os.fspath(path)
    tmp = target + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=_PICKLE_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return fingerprint


def read_checkpoint(path: Union[str, "os.PathLike[str]"]) -> Dict[str, Any]:
    """Read and verify a checkpoint file; returns the header payload.

    The returned dict still carries the raw ``body`` bytes (verified
    against the fingerprint) plus a decoded ``state`` entry ready for
    :meth:`CoflowSimulation.restore_state`.  Raises
    :class:`CheckpointError` on any corruption, truncation, schema
    mismatch, or fingerprint divergence; raises ``FileNotFoundError``
    untouched so callers can distinguish "no checkpoint yet" from "a
    checkpoint went bad".
    """
    target = os.fspath(path)
    try:
        with open(target, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {target}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError(f"{target} is not a repro checkpoint")
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {payload.get('schema')!r} in {target} is not "
            f"the supported version {CHECKPOINT_SCHEMA}"
        )
    body = payload.get("body")
    if not isinstance(body, bytes):
        raise CheckpointError(f"checkpoint {target} carries no state body")
    if _fingerprint(body) != payload.get("fingerprint"):
        raise CheckpointError(
            f"checkpoint {target} failed its integrity fingerprint "
            "(truncated or corrupted)"
        )
    try:
        payload["state"] = pickle.loads(body)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {target} body does not decode: {exc}"
        ) from exc
    return payload


def restore_simulation(
    path: Union[str, "os.PathLike[str]"],
    checkpoint_every: Optional[float] = None,
    checkpoint_path: Union[str, "os.PathLike[str]", None] = None,
) -> CoflowSimulation:
    """Rebuild the simulation stored at ``path``, ready to ``run()``.

    ``checkpoint_every``/``checkpoint_path`` configure the restored
    run's own checkpoint cadence (commonly the same path, so a resumed
    run keeps advancing its checkpoint); left unset, the restored run
    takes no further checkpoints.
    """
    payload = read_checkpoint(path)
    return CoflowSimulation.restore_state(
        payload["state"],
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
