"""Run manifest: content hashes of every stage's inputs and outputs.

Caching is keyed on content, not timestamps: a stage is skipped when its
recorded config hash and input hashes match the current state and all its
outputs still hash to what the manifest recorded. Downstream stages refuse to
run when an upstream artifact no longer matches its manifest entry.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class StaleArtifactError(RuntimeError):
    """An upstream file no longer matches the manifest; rerun it or pass --force."""


# Fields after the keyword of each line that follows `stage <name> config <hash>`.
_FIELDS = {"seconds": 1, "input": 2, "output": 2}


@dataclass
class StageRecord:
    name: str
    config_hash: str
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0


@dataclass
class Manifest:
    root: Path
    stages: dict[str, StageRecord] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.root / "manifest.txt"

    @classmethod
    def load(cls, root) -> "Manifest":
        root = Path(root)
        man = cls(root)
        path = man.path
        if not path.exists():
            return man
        current: StageRecord | None = None
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            key, _, rest = line.strip().partition(" ")
            if not key:
                continue
            # A recorded path may contain spaces; a digest never does.
            fields = rest.rsplit(" ", 1) if key in ("input", "output") else rest.split()
            try:
                if key == "stage" and len(fields) == 3 and fields[1] == "config":
                    current = StageRecord(fields[0], fields[2])
                    man.stages[fields[0]] = current
                elif current is None or len(fields) != _FIELDS.get(key) or not all(fields):
                    raise ValueError
                elif key == "seconds":
                    current.seconds = float(fields[0])
                elif key == "input":
                    current.inputs[fields[0]] = fields[1]
                else:
                    current.outputs[fields[0]] = fields[1]
            except ValueError:
                raise StaleArtifactError(
                    f"{path}:{lineno}: malformed manifest line {line!r}; "
                    f"delete the manifest to rerun every stage") from None
        return man

    def save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        lines = []
        for rec in self.stages.values():
            lines.append(f"stage {rec.name} config {rec.config_hash}")
            lines.append(f"seconds {repr(rec.seconds)}")
            for rel, digest in sorted(rec.inputs.items()):
                lines.append(f"input {rel} {digest}")
            for rel, digest in sorted(rec.outputs.items()):
                lines.append(f"output {rel} {digest}")
        # Written beside the manifest and moved into place, so a crash mid-save
        # leaves the previous manifest intact.
        tmp = self.path.with_name(f".manifest.txt.{os.getpid()}.tmp")
        try:
            tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def _rel(self, path) -> str:
        # Keyed relative to the root, with '..' steps for inputs that live
        # outside it (another run's population), so no key names the checkout.
        return Path(os.path.relpath(path, self.root)).as_posix()

    def digests(self, paths) -> dict[str, str]:
        """{key: content hash} of each file, keyed as the manifest records it."""
        return {self._rel(p): file_hash(p) for p in paths}

    def record(self, name: str, config_hash: str, inputs: dict[str, str], outputs: list,
               seconds: float) -> None:
        """Store the stage's input digests, as verified before it ran, and hash its outputs."""
        self.stages[name] = StageRecord(name, config_hash, dict(inputs),
                                        self.digests(outputs), seconds)
        self.save()

    def up_to_date(self, name: str, config_hash: str, inputs: dict[str, str]) -> bool:
        """True when the stage ran with this config on these input digests and its
        outputs are untouched."""
        rec = self.stages.get(name)
        if rec is None or rec.config_hash != config_hash or rec.inputs != inputs:
            return False
        return all((self.root / rel).exists() and file_hash(self.root / rel) == digest
                   for rel, digest in rec.outputs.items())

    def verify_upstream(self, name: str, force: bool = False) -> dict[str, str]:
        """Digests of an upstream stage's outputs, checked against the manifest unless forced."""
        rec = self.stages.get(name)
        if rec is None:
            raise StaleArtifactError(f"stage {name!r} has not been run in this directory")
        digests = {}
        for rel, recorded in sorted(rec.outputs.items()):
            path = self.root / rel
            if not path.exists():
                raise StaleArtifactError(f"{rel}: missing output of stage {name!r}")
            digests[rel] = file_hash(path)
            if not force and digests[rel] != recorded:
                raise StaleArtifactError(
                    f"{rel} was modified after stage {name!r} recorded it; "
                    f"rerun the stage or pass --force"
                )
        return digests
