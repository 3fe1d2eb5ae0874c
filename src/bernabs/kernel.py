"""Node-store backend selection.

The compiled kernel (``bernabs._cnodes``) is the default when it imports;
otherwise the pure-Python twin is.  Callers that need one backend pass its
name (``backend="pure"`` or ``"compiled"``; the latter raises if the
extension is missing).  Both implement the same node-id protocol, so
everything above this module is backend-agnostic.
"""

from bernabs import _pynodes

OP_AND = _pynodes.OP_AND
OP_OR = _pynodes.OP_OR
OP_XOR = _pynodes.OP_XOR
OP_IMP = _pynodes.OP_IMP
OP_IFF = _pynodes.OP_IFF
FALSE = _pynodes.FALSE
TRUE = _pynodes.TRUE

try:
    from bernabs import _cnodes
except ImportError:
    _cnodes = None


def available_backends():
    names = ["pure"]
    if _cnodes is not None:
        names.insert(0, "compiled")
    return tuple(names)


def get_node_table_class(backend=None):
    """Resolve a backend name ('compiled', 'pure' or None for default)."""
    if backend in (None, "compiled"):
        if _cnodes is not None:
            return _cnodes.NodeTable
        if backend == "compiled":
            raise RuntimeError("compiled kernel requested but not built")
        return _pynodes.NodeTable
    if backend == "pure":
        return _pynodes.NodeTable
    raise ValueError(f"unknown kernel backend {backend!r}")


DEFAULT_BACKEND = "compiled" if _cnodes is not None else "pure"
