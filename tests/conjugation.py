"""Charge conjugation checked on the closed-form spectrum.

The conjugated problem (a, b) -> (-a, -b) read at kappa -> -kappa must hold
every level of the original at -kappa_bar, with n_bar preserved, the branch
flipped and the energy negated.  Both spectra come from ``spectrum``, so
the check is a comparison of two dicts keyed by (kappa_bar, n_bar, branch).
"""

from diractensor import charge_conjugate, spectrum

FLIP = {"particle": "antiparticle", "antiparticle": "particle"}


def bound_levels(params, kappas, n_max) -> dict:
    """{(kappa_bar, n_bar, branch): E} over the bound rows of the "both" spectrum."""
    table = spectrum(params, kappas, n_max, "both")
    cells = zip(table["kappa_bar"], table["n_bar"], table["branch"], table["energy"], table["bound"])
    return {(kb, nb, br): e for kb, nb, br, e, bound in cells if bound}


def conjugation_mismatch(params, kappas, n_max, sign=-1.0, flip=FLIP) -> set:
    """The (level, E) items on which the spectrum of ``params`` and the
    conjugated spectrum, mapped back by kappa_bar -> -kappa_bar, ``flip`` of
    the branch and E -> ``sign`` * E, disagree; empty when the two are one
    complete bijection with zero energy deviation."""
    kappas = list(kappas)
    own = bound_levels(params, kappas, n_max)
    conjugate = bound_levels(charge_conjugate(params), [-k for k in kappas], n_max)
    mirrored = {(-kb, nb, flip[br]): sign * e for (kb, nb, br), e in conjugate.items()}
    assert own, "no bound level to compare"
    return own.items() ^ mirrored.items()
