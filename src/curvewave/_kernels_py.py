"""Gather/scatter between an (N, N) spectrum and a wedge's wrapped rectangle."""

BACKEND = "python"


def wedge_gather(spectrum, support, weights, wrapped, out):
    out[wrapped] = weights * spectrum[support]


def wedge_scatter(spectrum, support, weights, wrapped, rect):
    spectrum[support] += weights * rect[wrapped]
