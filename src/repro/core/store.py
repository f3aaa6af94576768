"""JSON persistence for measurement series and campaign results.

Characterization campaigns are expensive; a real deployment measures once
and analyzes many times. This module round-trips the library's result
artifacts through plain JSON (no pickle: results are data, and the format
stays inspectable and diffable).

Format 2 stores each series' ``values`` as one base64 string of its
little-endian float64 bytes (``<f8``), not as a list of JSON floats.
Decoding a column is a single buffer copy instead of one Python float
per measurement, and every IEEE value (NaN, ±inf, −0.0, subnormals)
round-trips bit for bit. The column stays inside the JSON object rather
than in a separate binary blob, so the result store's canonical-JSON
checksum and every JSON reader of the store keep working unchanged.
There is one decoder: a payload of another format version is rejected,
and the campaign cache's recipe keys are versioned with it, so format-1
entries are never looked up again.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.campaign import CampaignResult, RowObservation
from repro.core.config import TestConfig
from repro.core.patterns import pattern_by_name
from repro.core.series import RdtSeries
from repro.errors import ConfigurationError, MeasurementError

#: Format version written into every file, checked on load.
FORMAT_VERSION = 2

#: On-disk dtype of a series column: little-endian IEEE 754 binary64.
_VALUES_DTYPE = np.dtype("<f8")

PathLike = Union[str, Path]


def _encode_values(values: np.ndarray) -> str:
    """Base64 of ``values`` as little-endian float64 bytes."""
    raw = np.ascontiguousarray(values, dtype=_VALUES_DTYPE).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_values(encoded: object) -> np.ndarray:
    """Inverse of :func:`_encode_values`: a writable float64 array.

    Raises :class:`MeasurementError` for anything that is not a strict
    base64 string of whole float64 values.
    """
    if not isinstance(encoded, str):
        raise MeasurementError(
            "series values must be a base64 string, not "
            f"{type(encoded).__name__}"
        )
    try:
        raw = base64.b64decode(encoded, validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise MeasurementError(
            f"series values are not base64: {error}"
        ) from error
    if len(raw) % _VALUES_DTYPE.itemsize:
        raise MeasurementError(
            f"series values hold {len(raw)} bytes, not a whole number of "
            "float64 values"
        )
    return np.frombuffer(raw, dtype=_VALUES_DTYPE).astype(np.float64)


def series_to_dict(series: RdtSeries) -> dict:
    """Serialize one series (values as one base64 float64 column)."""
    return {
        "values": _encode_values(series.values),
        "module_id": series.module_id,
        "bank": series.bank,
        "row": series.row,
        "config_label": series.config_label,
        "grid_step": series.grid_step,
    }


def series_from_dict(payload: dict) -> RdtSeries:
    try:
        return RdtSeries(
            _decode_values(payload["values"]),
            module_id=payload["module_id"],
            bank=int(payload["bank"]),
            row=int(payload["row"]),
            config_label=payload["config_label"],
            grid_step=float(payload["grid_step"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise MeasurementError(f"malformed series payload: {error}") from error


def config_to_dict(config: TestConfig) -> dict:
    return {
        "pattern": config.pattern.name,
        "t_agg_on_ns": config.t_agg_on_ns,
        "temperature_c": config.temperature_c,
        "wordline_voltage_v": config.wordline_voltage_v,
    }


def config_from_dict(payload: dict) -> TestConfig:
    try:
        return TestConfig(
            pattern=pattern_by_name(payload["pattern"]),
            t_agg_on_ns=float(payload["t_agg_on_ns"]),
            temperature_c=float(payload["temperature_c"]),
            wordline_voltage_v=float(payload.get("wordline_voltage_v", 2.5)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise MeasurementError(f"malformed config payload: {error}") from error


def campaign_to_dict(result: CampaignResult) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "module_id": result.module_id,
        "observations": [
            {
                "bank": obs.bank,
                "row": obs.row,
                "config": config_to_dict(obs.config),
                "series": series_to_dict(obs.series),
            }
            for obs in result.observations
        ],
    }


def campaign_from_dict(payload: dict) -> CampaignResult:
    if not isinstance(payload, dict):
        raise MeasurementError("a campaign payload must be a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise MeasurementError(
            f"unsupported campaign format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        result = CampaignResult(module_id=payload["module_id"])
        for entry in payload["observations"]:
            result.observations.append(
                RowObservation(
                    module_id=payload["module_id"],
                    bank=int(entry["bank"]),
                    row=int(entry["row"]),
                    config=config_from_dict(entry["config"]),
                    series=series_from_dict(entry["series"]),
                )
            )
    except (KeyError, TypeError, ValueError) as error:
        raise MeasurementError(
            f"malformed campaign payload: {error!r}"
        ) from error
    return result


def save_campaign(result: CampaignResult, path: PathLike) -> None:
    """Write a campaign result to a JSON file.

    Raises :class:`ConfigurationError` if the file cannot be written.
    """
    text = json.dumps(campaign_to_dict(result))
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot write campaign file: {error}"
        ) from error


def load_campaign(path: PathLike) -> CampaignResult:
    """Read a campaign result back from a JSON file.

    Raises :class:`MeasurementError` if the file cannot be read or is not
    a campaign payload.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise MeasurementError(
            f"cannot read campaign file: {error}"
        ) from error
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise MeasurementError(f"not a campaign file: {error}") from error
    return campaign_from_dict(payload)
