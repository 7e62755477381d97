"""Dense products of single-site operators: the engine's, and the Kronecker chains behind them."""

import numpy as np

from lindnet.hilbert import _operator_triplet


def local_operator(site, op_kind):
    """A site's local operator: S-|eta+1> = sqrt((eta+1)(2s-eta)) |eta>, 1 at s = 1/2."""
    d = site.dim
    s = (d - 1) / 2
    low = np.zeros((d, d), dtype=complex)
    for eta in range(d - 1):
        low[eta, eta + 1] = np.sqrt((eta + 1) * (2 * s - eta))
    return {"lower": low, "raise": low.conj().T,
            "number": np.diag(np.arange(d, dtype=float)).astype(complex),
            "identity": np.eye(d, dtype=complex)}[op_kind]


def kron_chain(basis, ops):
    """A product of single-site operators as one Kronecker chain of the local
    factors, an identity run over each stretch of sites between them."""
    factors = sorted((basis.site_position(lbl), kind) for lbl, kind in ops.items())
    out = np.ones((1, 1), dtype=complex)
    start = 0
    for pos, kind in factors:
        out = np.kron(out, np.eye(int(np.prod(basis.dims[start:pos]))))
        out = np.kron(out, local_operator(basis.sites[pos], kind))
        start = pos + 1
    return np.kron(out, np.eye(int(np.prod(basis.dims[start:]))))


def embedded(basis, ops):
    """The engine's product of single-site operators: its triplet scattered into D x D."""
    rows, cols, vals = _operator_triplet(basis, ops)
    out = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    out[rows, cols] = vals
    return out
