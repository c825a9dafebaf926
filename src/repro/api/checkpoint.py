"""Checkpoint/resume for deployment sessions.

A :class:`SimulationCheckpoint` is a JSON-serializable snapshot of the
*complete* mid-run state of a :class:`~repro.api.Simulation` taken at a
round boundary: node positions (exact floats — JSON round-trips Python
floats losslessly), liveness, per-node odometry, the convergence
tracker, the recorded history, and — for distributed sessions — the
scheduler's RNG state, communication counters and the failure
injector's RNG/bookkeeping.  Restoring a checkpoint and running to
completion produces results **bitwise identical** to the uninterrupted
run (covered by ``tests/test_api_checkpoint.py`` across both round
engines and both region back-ends).

Checkpoints are what make long runs preemptible: the CLI's
``--checkpoint-every N`` / ``--resume-from PATH`` flags and the
:class:`~repro.scenarios.sweep.SweepRunner`'s checkpoint directory are
thin wrappers over this module.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.regions.region import Region

#: Version of the checkpoint payload layout; bump on every change so a
#: stale checkpoint is rejected instead of silently misread.
CHECKPOINT_VERSION = 1

#: Environment variable: checkpoint frequency in rounds (the CLI's
#: ``--checkpoint-every``); unset or 0 disables checkpointing.
CHECKPOINT_EVERY_ENV = "REPRO_CHECKPOINT_EVERY"

#: Environment variable: directory deployment pipelines write periodic
#: checkpoints to (the CLI's ``--checkpoint-dir``); files are named by
#: scenario digest, so interrupted sweep cells resume on re-run.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"


def resolve_checkpoint_every() -> int:
    """Checkpoint frequency from the environment (0 = disabled)."""
    value = os.environ.get(CHECKPOINT_EVERY_ENV, "").strip()
    if not value:
        return 0
    every = int(value)
    if every < 0:
        raise ValueError(f"{CHECKPOINT_EVERY_ENV} must be >= 0, got {every}")
    return every


def resolve_checkpoint_dir() -> Optional[Path]:
    """Checkpoint directory from the environment (unset = disabled)."""
    value = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    return Path(value) if value else None


def checkpoint_path_for(directory: Path | str, digest: str) -> Path:
    """Canonical checkpoint file path for a scenario digest."""
    return Path(directory) / f"{digest}.ckpt.json"


# ----------------------------------------------------------------------
# Serialization helpers shared by the deployers
# ----------------------------------------------------------------------
def region_to_dict(region: Region) -> Dict[str, Any]:
    """Serialize a region as an explicit polygon dict (lossless)."""
    return {
        "kind": "polygon",
        "outer": [[float(x), float(y)] for x, y in region.outer],
        "holes": [[[float(x), float(y)] for x, y in hole] for hole in region.holes],
        "name": region.name,
    }


def region_from_dict(payload: Mapping[str, Any]) -> Region:
    """Rebuild a region from :func:`region_to_dict` output."""
    return Region(
        [tuple(p) for p in payload["outer"]],
        holes=[[tuple(p) for p in hole] for hole in payload.get("holes", [])],
        name=payload.get("name", "region"),
    )


def rng_state_to_dict(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-compatible snapshot of a numpy Generator's full state.

    Array-valued state entries (Philox counters, SFC64/MT19937 words)
    are stored as plain lists; every numpy bit generator's state setter
    coerces them back, so the snapshot is generator-agnostic.
    """
    return json.loads(
        json.dumps(rng.bit_generator.state, default=lambda a: a.tolist())
    )


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically, safe for concurrent writers.

    The text goes to a uniquely named temporary file in the target's
    directory (same filesystem, so the rename is atomic), which then
    replaces ``path`` in one ``os.replace``.  Two writers of the same
    path each rename their own complete file: a reader sees one whole
    payload or the other, never a torn one, and no writer can rename a
    temporary file another writer already moved.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def rng_from_state(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a numpy Generator positioned exactly at a saved state."""
    bit_generator_cls = getattr(np.random, state["bit_generator"])
    bit_generator = bit_generator_cls()
    bit_generator.state = dict(state)
    return np.random.Generator(bit_generator)


class SimulationCheckpoint:
    """A versioned, JSON-serializable snapshot of a session's full state.

    Construct via :meth:`Simulation.checkpoint`; consume via
    :meth:`Simulation.restore`.  The payload is plain data — inspect it,
    ship it across machines, or archive it next to the result.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        if payload.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint_version "
                f"{payload.get('checkpoint_version')!r} (this build reads "
                f"version {CHECKPOINT_VERSION})"
            )
        self.payload = payload
        self._nbytes: Optional[int] = None

    # -- plain-data views ------------------------------------------------
    @property
    def kind(self) -> str:
        """Which deployer kind the checkpoint belongs to."""
        return self.payload["kind"]

    @property
    def rounds_executed(self) -> int:
        """How many rounds had been executed at snapshot time."""
        return int(self.payload["rounds_executed"])

    @property
    def spec_digest(self) -> Optional[str]:
        """Content digest of the originating scenario (if spec-built)."""
        return self.payload.get("spec_digest")

    @property
    def nbytes(self) -> int:
        """Size of the serialized checkpoint in bytes.

        This is exactly the memory an *evicted* session costs a hosting
        process that keeps the JSON blob resident (see
        ``repro.service``), and the disk footprint of :meth:`save`.
        Computed lazily on first access and cached — the payload is
        immutable by contract once snapshotted.
        """
        if self._nbytes is None:
            self._nbytes = len(self.to_json().encode("utf-8"))
        return self._nbytes

    def to_json(self) -> str:
        """The canonical serialized form (what :meth:`save` writes)."""
        return json.dumps(self.payload)

    def to_dict(self) -> Dict[str, Any]:
        return self.payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationCheckpoint":
        return cls(dict(payload))

    # -- persistence -----------------------------------------------------
    def save(self, path: Path | str) -> Path:
        """Atomically write the checkpoint to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.to_json()
        self._nbytes = len(text.encode("utf-8"))
        atomic_write_text(path, text)
        return path

    @classmethod
    def load(cls, path: Path | str) -> "SimulationCheckpoint":
        """Read a checkpoint file written by :meth:`save`."""
        return cls(json.loads(Path(path).read_text()))
