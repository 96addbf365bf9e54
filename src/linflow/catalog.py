"""The planar catalog: four coarsening normal forms of a planar generator.

`catalog2d` scales the generator, its Lipschitz form and its Lyapunov
form to unit size by `similarity.normalising_scalings`, and names its
orbit-structure class by the planar labels that the classifier's TopEquiv
decision reads (`classifier._topological_label_2d`).  Only the `catalog2d`
subcommand imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import record
from .blocks import GeneratorSpec, JordanBlock, _fields_to_json, _require_spec, scale_spec
from .classifier import _topological_label_2d
from .errors import DimMismatch
from .invariants import lyapunov_spectrum, semisimple_collapse
from .similarity import normalising_scalings

__all__ = ["CatalogEntry", "catalog2d"]


@record
class CatalogEntry:
    row: str
    representative: GeneratorSpec
    scaling: Optional[Fraction]
    label: Optional[str] = None
    to_json = _fields_to_json


def _spectrum_spec(spec):
    return GeneratorSpec(
        [JordanBlock(1, lam, 0) for lam in lyapunov_spectrum(spec)]
    )


def catalog2d(spec):
    """Four coarsening normal forms of a planar generator, finest first.

    The first three rows scale a form of the generator by its first
    normalising scaling, to unit size: a growth rate of largest modulus
    becomes +1, else the top rotation rate becomes 1.
    """
    if _require_spec(spec).dim != 2:
        raise DimMismatch(f"catalog requires dimension 2, got {spec.dim}")
    forms = {
        "similar": spec,
        "lipschitz": semisimple_collapse(spec),
        "lyapunov": _spectrum_spec(spec),
    }
    rows = {}
    for row, form in forms.items():
        alpha = normalising_scalings(form)[0]
        rows[row] = CatalogEntry(row, scale_spec(form, alpha), alpha)
    label = _topological_label_2d(spec)
    rows["topological"] = CatalogEntry("topological", _TOP_REPS[label], None, label=label)
    return rows


_TOP_REPS = {
    "zero": GeneratorSpec([JordanBlock(1, 0, 0), JordanBlock(1, 0, 0)]),
    "shear": GeneratorSpec([JordanBlock(2, 0, 0)]),
    "center": GeneratorSpec([JordanBlock(1, 0, 1)]),
    "saddle": GeneratorSpec([JordanBlock(1, -1, 0), JordanBlock(1, 1, 0)]),
    "degenerate-line": GeneratorSpec([JordanBlock(1, 0, 0), JordanBlock(1, 1, 0)]),
    "node": GeneratorSpec([JordanBlock(1, 1, 0), JordanBlock(1, 1, 0)]),
}
