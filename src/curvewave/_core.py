"""Kernel module, the grid FFT pair and shared runtime knobs.

The wrapping transform's gather and scatter (the frame's sparse wrapping
matrix applied to stacks of spectra and of packed coefficients) live in
``_kernels_py``, imported here as ``kernels``; ``analyze`` and
``synthesize`` call through it.  ``BACKEND`` names that implementation in
benchmark provenance.  ``fft2`` and ``ifft2`` are the one ortho FFT pair
every module uses, and the FFTs are the one parallel level: a transform of
at least ``THREADED_POINTS`` points per field runs on ``FFT_WORKERS``, the
CPUs this process may run on (its affinity mask), a smaller one on one
thread, where starting threads costs more than it saves.  A caller that
owns its buffer and reads it no more may pass ``overwrite_x=True``: SciPy
may then transform it in place, but need not, so the caller uses the
returned array.  The package starts no thread of its own and keeps no
lock or pool.  ``checked`` refuses a JSON section with keys its reader
would ignore; ``number``, ``pair`` and ``text`` read JSON values; ``Spec``
is the one JSON codec of ``OperatorSpec``, ``VelocityModel`` and
``WarpMap``, each a table of keys.
"""

import math
import numbers
import os

import scipy.fft as spfft

from . import _kernels_py as kernels

BACKEND = kernels.BACKEND

FFT_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Points per field from which an FFT runs on FFT_WORKERS.  Measured on an
# idle 2-vCPU machine (N x N ifft2, best to median of 14 x 20 calls): one
# worker wins at N = 64 (68-69 against 92-95 us on two), N = 128 is a wash
# (253-261 against 232-277 us), two win at N = 256 (783-798 against
# 1,071-1,125 us on one).  The result does not depend on the worker count.
THREADED_POINTS = 256 * 256


def fft_workers(points: int) -> int:
    """FFT workers for a transform of ``points`` points per field: the
    thread rule of :data:`THREADED_POINTS`."""
    return FFT_WORKERS if points >= THREADED_POINTS else 1


def fft2(x, overwrite_x: bool = False):
    """Ortho 2-D FFT over the last two axes of ``x``, an (N, N) field or a
    (..., N, N) stack, on :func:`fft_workers` threads (the result does not
    depend on them).  With ``overwrite_x`` the contents of ``x`` may be
    destroyed, and the result may or may not share its memory.
    ``scipy.fft.fft2`` is looked up at each call, so a patched ``scipy.fft``
    (``perfbench``'s FFT counter) sees every FFT."""
    return spfft.fft2(x, norm="ortho", overwrite_x=overwrite_x, workers=fft_workers(x.shape[-2] * x.shape[-1]))


def ifft2(x, overwrite_x: bool = False):
    """Inverse of :func:`fft2`."""
    return spfft.ifft2(x, norm="ortho", overwrite_x=overwrite_x, workers=fft_workers(x.shape[-2] * x.shape[-1]))


def checked(where: str, section, allowed) -> dict:
    """Return a JSON section, refusing a non-object or any key not in ``allowed``."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return section


def number(where: str, value, kind: type = float, least=None):
    """A JSON number read as ``kind`` (float or int).  A ValueError naming ``where``
    refuses a bool, a string, a non-integer where an int is read, a non-finite
    value and a value below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{where} must be a JSON {'integer' if kind is int else 'number'}; got {value!r}")
    value = kind(value)
    if not math.isfinite(value):
        raise ValueError(f"{where} {value} is not finite")
    if least is not None and value < least:
        raise ValueError(f"{where} must be at least {least}; got {value!r}")
    return value


def text(where: str, value) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a JSON string; got {value!r}")
    return value


def pair(where: str, value, kind: type = float) -> tuple:
    """A JSON list of two numbers, each read by ``number``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{where} must be a list of two numbers; got {value!r}")
    return tuple(number(where, v, kind) for v in value)


class Spec:
    """The JSON codec of a frozen dataclass with a ``kind``.  The class states its format as tables:
    ``_KEYS[kind]``, the keys each kind reads and writes besides "kind", ``_WHERE`` and those of ``from_json``."""

    _DEFAULT_KIND, _READ, _REQUIRED, _DEFAULTS = None, {}, {}, {}

    def __post_init__(self):
        if self.kind not in self._KEYS:
            raise ValueError(f"unknown {self._WHERE} kind {self.kind!r}")

    def to_json(self, **given) -> dict:
        """The JSON: "kind", then the kind's keys from ``given`` or the fields, tuples as lists."""
        out = {"kind": self.kind}
        for key in self._KEYS[self.kind]:
            value = given[key] if key in given else getattr(self, key)
            out[key] = value.to_json() if isinstance(value, Spec) else list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json(cls, spec):
        """The spec of a JSON object, of ``_DEFAULT_KIND`` without a "kind".  Each key is read by
        ``_READ[key]`` (a function of (where, value), or a nested ``Spec`` class) or as a JSON number;
        a key left out takes ``_DEFAULTS[kind]`` or else its field's default.  A non-object, an unknown
        kind, a key the kind does not read and a missing ``_REQUIRED[kind]`` key are refused."""
        if not isinstance(spec, dict):
            raise ValueError(f"{cls._WHERE} must be a JSON object")
        kind = spec.get("kind", cls._DEFAULT_KIND)
        if not isinstance(kind, str) or kind not in cls._KEYS:  # a list kind is unhashable
            raise ValueError(f"unknown {cls._WHERE} kind {kind!r}")
        where = f"{kind} {cls._WHERE}"
        checked(where, spec, {"kind", *cls._KEYS[kind]})
        if missing := [key for key in cls._REQUIRED.get(kind, ()) if key not in spec]:
            raise ValueError(f"{where} needs key {missing[0]!r}")
        values = dict(cls._DEFAULTS.get(kind, {}))
        for key in (key for key in cls._KEYS[kind] if key in spec):
            read = cls._READ.get(key, number)
            values[key] = read.from_json(spec[key]) if isinstance(read, type) else read(f"{where} {key}", spec[key])
        return cls(kind=kind, **values)
