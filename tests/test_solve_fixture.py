"""Regression fixture: ``solve`` and ``plot`` runs, as output and exit digests.

Each run is reduced to a SHA-256 digest, as ``digests.solve_digests``
describes, and compared with the ``solve/`` pins of ``pins.json``.
"""

from digests import solve_digests
from pins import check


def test_solve_reports_match_recorded_digests():
    check("solve", solve_digests())
