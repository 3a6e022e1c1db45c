"""Run manifests: everything needed to reproduce an artifact run bit-exactly.

The manifest lives next to the report directory, never inside it, so two
runs from the same manifest can be compared byte-for-byte while the
manifest itself carries wall-clock timestamps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParseError


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    input_hashes: dict[str, str]
    config: dict
    seed: int
    version: str
    created_utc: str
    finished_utc: str | None = None

    @staticmethod
    def start(command: str, argv: list[str], config: dict, seed: int,
              version: str, input_hashes: dict[str, str] | None = None) -> "RunManifest":
        return RunManifest(
            command=command,
            argv=list(argv),
            input_hashes=dict(input_hashes or {}),
            config=config,
            seed=seed,
            version=version,
            created_utc=datetime.now(timezone.utc).isoformat(),
        )

    def finish(self) -> None:
        self.finished_utc = datetime.now(timezone.utc).isoformat()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(m: RunManifest, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(m), indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> RunManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        return RunManifest(**raw)
    except (OSError, ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
