"""Kernel module and shared runtime knobs.

The wrapping transform's gather and scatter (the frame's sparse wrapping
matrix applied to stacks of spectra and of packed coefficients) live in
``_kernels_py``, imported here as ``kernels``; ``analyze`` and
``synthesize`` call through it.  ``BACKEND`` names that implementation in
benchmark provenance.  ``FFT_WORKERS``, the CPUs this process may run on
(its affinity mask), is the one parallel level: every grid-sized FFT uses
it.  ``checked`` and ``checked_kind`` refuse JSON specs with keys their
reader would ignore; ``required`` names a key a spec leaves out;
``spec_json`` writes a spec from its table of keys.
"""

import os

from . import _kernels_py as kernels

BACKEND = kernels.BACKEND

FFT_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def checked(where: str, section, allowed) -> dict:
    """Return a JSON section, refusing a non-object or any key not in ``allowed``."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return section


def checked_kind(where: str, spec, keys_by_kind: dict, default: str | None = None) -> str:
    """Return the "kind" of a JSON spec, refusing a non-object, an unknown
    kind, or a key that kind does not read (``keys_by_kind``, besides "kind")."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object")
    kind = spec.get("kind", default)
    if kind not in keys_by_kind:
        raise ValueError(f"unknown {where} kind {kind!r}")
    checked(f"{kind} {where}", spec, {"kind", *keys_by_kind[kind]})
    return kind


def required(where: str, spec: dict, key: str):
    """``spec[key]``, refusing a spec without it with a ValueError naming the key."""
    if key not in spec:
        raise ValueError(f"{where} needs key {key!r}")
    return spec[key]


def spec_json(spec, keys, **given) -> dict:
    """JSON of a spec: its "kind", then each of ``keys`` taken from ``given``
    or else from the spec's field of that name.  Tuples become lists and
    nested specs write their own JSON."""
    out = {"kind": spec.kind}
    for key in keys:
        value = given[key] if key in given else getattr(spec, key)
        out[key] = value.to_json() if hasattr(value, "to_json") else list(value) if isinstance(value, tuple) else value
    return out
