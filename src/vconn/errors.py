"""Exception hierarchy shared by all vconn modules."""


class GraphError(Exception):
    """Base class for all domain errors raised by vconn."""


class VertexOutOfRange(GraphError):
    """A vertex id falls outside [0, n)."""


class NotAFlowgraph(GraphError):
    """Some vertex is unreachable from the requested start vertex."""


class NotStronglyConnected(GraphError):
    """The operation requires a strongly connected input graph."""


class NotTwoVertexConnected(GraphError):
    """The operation requires a 2-vertex-connected input graph."""


class NoCutExists(GraphError):
    """The graph is complete bidirected, so no vertex cut exists."""


class InvalidK(GraphError):
    """Connectivity order k is out of the supported range."""


class UnknownVariant(GraphError):
    """Unrecognised algorithm selector."""


class TooLarge(GraphError):
    """Input exceeds the size guard of a brute-force oracle."""


class InvalidSpec(GraphError):
    """Random-graph generator spec is inconsistent."""


class MismatchedOutputs(GraphError):
    """Two algorithms disagreed on the same input graph."""


class EdgeListFormatError(GraphError):
    """Malformed edge-list text."""
