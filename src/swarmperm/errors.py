"""Exception taxonomy shared by all modules.

Every error raised by the library derives from SwarmError so callers can
catch the whole family at an engine or CLI boundary.
"""


class SwarmError(Exception):
    pass


# geometry
class EmptyConfiguration(SwarmError):
    pass


class DegenerateReference(SwarmError):
    pass


class InvalidFrame(SwarmError):
    pass


class AmbiguousLayering(SwarmError):
    pass


class NonFinite(SwarmError, ValueError):
    """A coordinate left the finite floats."""


# symmetry
class DuplicatePoints(SwarmError):
    pass


# ordering
class NotOrderable(SwarmError):
    pass


class MirrorSymmetric(SwarmError):
    pass


class VoteTie(SwarmError):
    pass


class InvalidLeader(SwarmError):
    pass


# protocols
class InvalidHop(SwarmError):
    pass


class DecodeFailure(SwarmError):
    pass


class NotCentral(SwarmError):
    pass


class InvalidCaller(SwarmError):
    pass


class ReconstructFailure(SwarmError):
    pass


# engine
class CollisionDetected(SwarmError):
    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


# verify
class NotAPermutation(SwarmError):
    pass
