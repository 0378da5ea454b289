"""Exact-arithmetic library for the level-l perfect crystals attached to
the 8-dimensional fundamental module of the twisted quantum affine algebra
with Cartan rows (2,-1,0), (-1,2,-3), (0,-1,2).

Modules:
  exactalg     exact rational functions in q, Laurent polynomials, linear solving
  g2crystal    the classical one-row crystals in six coordinates
  affine       the affine 0-action, level contexts, enumeration of B_l
  tensorcat    indexed tables of B_l, tensor rule, components, vacuum walk
  a2branch     the rank-two branching: components, closed-form tables, lemmas
  perfectness  perfectness axioms and the psi-function analysis
  coherent     the limit crystal and the coherent-family embeddings
  fundrep      the fundamental representation, polarization, lowering identities
  rmatrix      the spectral decomposition of the intertwiner and its checks
  cli          command-line front end
"""

__version__ = "0.1.0"
