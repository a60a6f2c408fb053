"""Exception types shared across the package."""


class FinitetopError(Exception):
    """Base class for all package errors."""


class DuplicateLabelError(FinitetopError):
    """An element label occurs more than once."""


class CycleError(FinitetopError):
    """The reflexive-transitive closure of the relation is not antisymmetric."""


class SizeError(FinitetopError):
    """An enumeration would exceed its configured cap."""


class NotMonotoneError(FinitetopError):
    """A map between preorders fails to preserve the order; for spaces, continuity fails."""


class TopologyError(FinitetopError):
    """An open-set family violates the topology axioms."""


class NotLatticeError(FinitetopError):
    """Some pair of elements has no least upper or greatest lower bound."""


class NotDistributiveError(FinitetopError):
    """A lattice fails the distributive law; carries a witness triple."""


class NotHomError(FinitetopError):
    """A map fails one of the frame homomorphism laws."""


class NotPrenucleusError(FinitetopError):
    """A self-map fails one of the prenucleus laws."""


class NotIsoError(FinitetopError):
    """A comparison map expected to be an isomorphism is not one."""


class CarrierMismatchError(FinitetopError):
    """Two structures expected to share a carrier do not."""


class EmptySubspaceError(FinitetopError):
    """A subspace restriction was given an empty point set."""


class HypothesisError(FinitetopError):
    """A structural precondition of a lemma check fails."""


class NonCommutingError(FinitetopError):
    """A diagram expected to commute does not."""


class ParseError(FinitetopError):
    """Input data does not describe a known structure."""


class VerificationError(FinitetopError):
    """An internal consistency check that should never fail did fail."""
