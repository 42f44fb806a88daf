"""Antifermions, charge conjugation, and the nonrelativistic limit.

Conjugation flips the tensor potential (a -> -a, b -> -b) and kappa -> -kappa,
so the antifermion spectrum mirrors the fermion one in kappa_bar with the
principal-like number n_bar preserved.  In the |b| << M limit the binding
energy keeps its spin-orbit dependence, unlike vector or scalar couplings.
"""

from diractensor import (
    Channel,
    ModelParams,
    charge_conjugate,
    energy,
    nonrelativistic_binding,
    spectrum,
)

params = ModelParams(mass=1.0, a=0.5, b=1.0)

print("=" * 66)
print("1. Conjugated parameters")
print("=" * 66)
conj = charge_conjugate(params)
print(f"  (a, b) = ({params.a}, {params.b})  ->  ({conj.a}, {conj.b})")
print(f"  double conjugation restores them: {charge_conjugate(conj) == params}")

print()
print("=" * 66)
print("2. Spectrum bijection: E(n, kappa_bar) = -E'(n', -kappa_bar)")
print("   with n_bar preserved and the branch flipped")
print("=" * 66)
kappas = [k for k in range(-5, 6) if k != 0]


def levels(p, ks):
    """{(kappa_bar, n_bar, branch): E} over the bound rows of both branches."""
    t = spectrum(p, ks, 3, "both")
    cells = zip(t["kappa_bar"], t["n_bar"], t["branch"], t["energy"], t["bound"])
    return {(kb, nb, br): e for kb, nb, br, e, bound in cells if bound}


flip = {"particle": "antiparticle", "antiparticle": "particle"}
own = levels(params, kappas)
conj_levels = levels(conj, [-k for k in kappas])
mirrored = {(-kb, nb, flip[br]): -e for (kb, nb, br), e in conj_levels.items()}
print(f"  levels: {len(own)}, conjugated levels: {len(conj_levels)}, "
      f"every one mirrored with E_conj = -E exactly: {own == mirrored}")
print(f"{'kappa_bar':>10} {'n_bar':>6} {'branch':>13} {'E':>12} {'E_conj':>12}")
for kb, nb, br in list(own)[:8]:
    print(f"{kb:>10.1f} {nb:>6.1f} {br:>13} "
          f"{own[kb, nb, br]:>12.8f} {conj_levels[-kb, nb, flip[br]]:>12.8f}")

print()
print("  the E = +M, n_g = 0 states map onto the E = -M, n_f = 0 states of")
print("  the mirror family (and back): the edge levels are conjugates")

print()
print("=" * 66)
print("3. Nonrelativistic limit: binding stays spin-orbit dependent")
print("=" * 66)
nr = ModelParams(mass=1.0, a=0.0, b=1e-3)
print(f"  |b|/M = {nr.b}; binding energies E - M for n_g = 1:")
print(f"{'kappa_bar':>10} {'exact E - M':>16} {'quadratic form':>16}")
for kappa in (-1, -2, -3):
    ch = Channel.from_kappa(kappa)
    exact = energy(nr, ch, 1) - nr.mass
    approx = nonrelativistic_binding(nr, ch, 1)
    print(f"{ch.kappa_bar:>10.1f} {exact:>16.12e} {approx:>16.12e}")
print(f"  ceiling b^2/(2M) = {0.5 * nr.b**2 / nr.mass:.3e} approached as n grows")
