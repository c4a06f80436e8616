"""Exception types and the AboveCap sentinel shared across the package."""


class QuiverAlgError(Exception):
    pass


class NonAdmissible(QuiverAlgError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(
            f"irreducible paths longer than the cap ({cap}) keep appearing; "
            "the relation ideal is not admissible")


class RelationIllFormed(QuiverAlgError):
    pass


class NotBasic(QuiverAlgError):
    pass


class NotSplit(QuiverAlgError):
    pass


class NonSplitEndo(QuiverAlgError):
    pass


class NotTauFinite(QuiverAlgError):
    def __init__(self, cap: int, last_dim: int):
        self.cap = cap
        self.last_dim = last_dim
        super().__init__(
            f"tau_n^-i(A) still has dimension {last_dim} at iterate cap {cap}")


class WindowInconclusive(QuiverAlgError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"orbit scan hit the window cap {cap} before "
                         "support separation")


class TermNotProjective(QuiverAlgError):
    pass


class GldimTooLarge(QuiverAlgError):
    pass


class AboveCapError(QuiverAlgError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"a resolution exceeded the length cap {cap}")


class AboveCap:
    """Verdict for a homological dimension that exceeded its cap."""

    def __init__(self, cap: int):
        self.cap = cap

    def __repr__(self):
        return f"AboveCap({self.cap})"

    def __eq__(self, other):
        return isinstance(other, AboveCap) and other.cap == self.cap

    def __hash__(self):
        return hash(("AboveCap", self.cap))
