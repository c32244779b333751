"""Exception and warning types shared across the package, the one rank
criterion: a matrix that must have full column rank is rejected when its
smallest singular value falls below ``RANK_RTOL`` times its largest, and the
one form of an id or a field's text in a message.
"""

# relative singular-value floor of every rank check (basis matrices, designs)
RANK_RTOL = 1e-10
# squared ratio bound that passes check_rank with a factor 2 for its rounding
RANK_BOUND2_MAX = 0.25 / RANK_RTOL**2

# characters of an id that a message shows
ID_CHARS = 80


def quoted_id(name: str) -> str:
    """``name`` in quotes, for a message; a longer id than ``ID_CHARS``
    characters shows its first ``ID_CHARS`` and its length."""
    return _shown(name, lambda text: f"'{text}'")


def quoted_text(text: str) -> str:
    """``text`` as ``repr`` shows it, for a message, cut as
    :func:`quoted_id` cuts an id."""
    return _shown(text, repr)


def _shown(text: str, quote) -> str:
    if len(text) <= ID_CHARS:
        return quote(text)
    return f"{quote(text[:ID_CHARS] + '...')} ({len(text)} characters)"


class DataError(Exception):
    """Malformed, inconsistent, or incomplete input data."""


class NumericalError(Exception):
    """Numerical failure: rank deficiency, singular system, or similar."""


class RankDeficiencyError(NumericalError):
    """A matrix that must have full column rank does not."""


class SampleSizeError(NumericalError):
    """The sample size does not exceed the number of model parameters."""


class ConditionWarning(UserWarning):
    """The parameter count k = 1 + sum(p_m) exceeds sqrt(n)/log(n).

    The fit is still computed when the design has full numerical rank, but
    the consistency regime for the selection procedure is not guaranteed.
    """


def check_rank(sv, what: str) -> None:
    """Raise :class:`RankDeficiencyError` unless ``sv`` (singular values in
    descending order) has smallest/largest at least ``RANK_RTOL``."""
    ratio = sv[-1] / sv[0] if sv[0] else 0.0
    if ratio < RANK_RTOL:
        raise RankDeficiencyError(
            f"{what} is numerically rank deficient: smallest/largest singular "
            f"value {ratio:.3e} < {RANK_RTOL:.0e}"
        )
