"""Run manifests: enough provenance to reproduce any command from its record."""

from __future__ import annotations

import datetime
import hashlib
import os

from . import jsonio


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class RunManifest:
    """`out_dir/manifest.json`: created, with `out_dir`, once a command has
    read its inputs, and finalized after the run ends."""

    def __init__(self, out_dir, command: str, config: dict, seed, input_paths=()):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, "manifest.json")
        self.record = {
            "command": command,
            "config": config,
            "seed": seed,
            "tool_version": _tool_version(),
            "inputs": {str(p): sha256_file(p) for p in input_paths},
            "outputs": {},
            "started_at": _now(),
            "finished_at": None,
        }
        self._write()

    def _write(self) -> None:
        jsonio.write(self.path, self.record, indent=2)

    def finalize(self, output_paths=()) -> None:
        self.record["outputs"] = {
            str(p): sha256_file(p) for p in output_paths if os.path.exists(p)
        }
        self.record["finished_at"] = _now()
        self._write()


def _tool_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("lorentzheads")
    except PackageNotFoundError:
        return "0.0.0+local"
