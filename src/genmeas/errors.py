"""Exception hierarchy for the genmeas package.

Invalid input raises a plain ``ValueError``. The classes here are the
failures that carry data of their own or that the command line reports with
an exit code other than 2: each carries its code as ``exit_code``.
"""


class GenmeasError(Exception):
    """Base class for genmeas errors; ``exit_code`` is the command-line exit status."""

    exit_code = 2


class NotComplete(GenmeasError, ValueError):
    """Kraus set violates the completeness condition."""

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(f"completeness violated: deviation {deviation:.3e}")


class InaccurateBranch(GenmeasError):
    """A reduced protocol composes a leaf's Kraus operator only to a deviation above
    the bound: a step stores p as a double, which fixes a leak amplitude
    a = sqrt(1 - p) only to about 3e-17 / a and rounds it to 0 below about 7e-9."""

    exit_code = 3

    def __init__(self, leaf: str, deviation: float, tol: float):
        self.leaf = leaf
        self.deviation = float(deviation)
        super().__init__(
            f"leaf {leaf}: composition deviation {deviation:.3e} exceeds {tol:.0e}; "
            "the reduction lost accuracy on a near-projective step"
        )


class Infeasible(GenmeasError):
    """A backend cannot realize a step: an infinite readout threshold, a
    readout past its duration cap, or a shot drawn into a zero-probability leaf."""

    exit_code = 4


class Mismatch(GenmeasError):
    """Two measurement descriptions cannot be compared: their outcome labels
    differ, or a POVM does not sum to the identity."""

    exit_code = 5
