"""Pinned payloads: sha256 digests of CLI output and of sweep failure rows.

The digests in data/payload_digests.json were taken from the implementation
that counted every family id (or every id of one family per link class), so
these tests hold the class-table engine to its output byte for byte: every
`verify kkt N S` and `verify uniqueness N S` with N <= 8 that the universe
cap admits, `verify equality`, seeded searches on every shape with n <= 7
that is not s in {1, n - 1, n} and on some that are, and the failure rows of
the sweeps with the cascade formulas shifted by one and the uniqueness
verdicts flipped.  A mismatch names the command or shape that differs.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from conftest import clear, stubbed

import kkcliques.oracle as oracle
from kkcliques.cli import run

PINNED = json.loads((Path(__file__).parent / "data" / "payload_digests.json").read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(command: str) -> str:
    """The digest of a command's exit status and rendered JSON payload."""
    res = run(command.split())
    return _digest(f"{res.exit_status}\n{res.text}")


def failure_digest(shift: int, n: int, s: int) -> str:
    """The digest of verify_kkt's failure rows with k_colex, then
    shadow_colex, off by shift, and of verify_uniqueness's with every
    verdict whose m + level + shift is odd flipped, each on a cleared store."""
    rows = []
    with stubbed() as mp:
        real = oracle.k_colex
        mp.setattr(oracle, "k_colex", lambda m, s_, t: max(real(m, s_, t) + shift, 0))
        rows.append(oracle.verify_kkt(n, s).failures)
    with stubbed() as mp:
        real = oracle.shadow_colex
        mp.setattr(oracle, "shadow_colex", lambda m, s_, q: max(real(m, s_, q) + shift, 0))
        rows.append(oracle.verify_kkt(n, s).failures)
    with stubbed() as mp:
        for name in ("is_colex_unique", "is_clique_unique"):
            real = getattr(oracle, name)
            mp.setattr(oracle, name, lambda m, s_, level, n_, real=real: dataclasses.replace(
                real(m, s_, level, n_), verdict=(m + level + shift) % 2 == 0))
        rows.append(oracle.verify_uniqueness(n, s).failures)
    return _digest(json.dumps(rows, sort_keys=True))


def test_cli_payloads_match_pinned_digests():
    differ = [c for c, want in PINNED["commands"].items() if cli_digest(c) != want]
    assert len(PINNED["commands"]) >= 100
    assert differ == [], f"payloads differ from the pinned digests: {differ}"


@pytest.mark.parametrize("shift", [1, -1])
def test_failure_rows_match_pinned_digests(shift):
    pinned = PINNED["failures"][str(shift)]
    differ = [shape for shape, want in pinned.items()
              if failure_digest(shift, *map(int, shape.split())) != want]
    assert differ == [], f"failure rows differ from the pinned digests at (n s) {differ}"


# commands whose counts a process keeps after their first run
KEPT = ["verify equality", "verify kkt 6 3", "verify kkt 7 2", "verify uniqueness 6 3",
        "verify uniqueness 7 2", "verify uniqueness 7 6"]


def test_warm_payloads_match_cold_payloads():
    # on a cleared store, then warm, each payload is the pinned one
    clear()
    cold = [run(c.split()).text for c in KEPT]
    warm = [run(c.split()).text for c in KEPT]
    assert warm == cold
    assert [_digest(f"0\n{text}") for text in warm] == [PINNED["commands"][c] for c in KEPT]
