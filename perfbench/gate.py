"""Correctness gate: which operations of a command failed, and whether any
output was wrong.

An operation is one solver stage or one ``verify`` command.

* A stage counts as converged only if the ``residual_norm`` that
  ``summary.json`` reports is at most ``GRAD_TOL``.  The exit code is not
  consulted, so a change to exit codes cannot redefine a failure.
* A converged stage must reproduce the reference energy J recorded for it
  to ``J_REL_TOL``.  A stage that converges to another J is a wrong output.
* A ``verify`` command must report ``all_passed``; an oracle that fails is
  a wrong output.
* A stage that stops short of ``GRAD_TOL`` is a failed operation.  It is
  also a wrong output, unless it is a stage that had already stalled when
  the references were recorded (its reference is ``None``): a known defect
  is counted, a new one fails the gate.
* A stage warm-started from a known stall starts from a seed-dependent
  iterate and may converge to another critical point than the minimizer
  (at λ̄ on 64², sweep seed 1020618426 ends at J = -21.7311 instead of
  -21.7696; a cold start at that seed finds -21.7696).  Such a stage must
  still converge, but a J other than its reference is a failed operation,
  not a wrong output: it is a consequence of the known defect.
* A solver command that leaves no ``summary.json``, or reports fewer stages
  than it was asked for, has every missing stage failed and wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the CLI's default tolerance, pinned here so the program cannot loosen it
GRAD_TOL = 1e-8

# Converged J agrees across seeds 0-5 and grids 64^2-512^2 to about 1e-14
# relative; the tolerance leaves room for a reordered FFT or reduction.
J_REL_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    attempted: int
    failed: int
    wrong: int
    notes: tuple[str, ...] = ()

    def __add__(self, other: "Verdict") -> "Verdict":
        return Verdict(
            self.attempted + other.attempted,
            self.failed + other.failed,
            self.wrong + other.wrong,
            self.notes + other.notes,
        )


NO_OPS = Verdict(0, 0, 0)


def check_stages(summary: dict | None, references: list[float | None]) -> Verdict:
    """Gate the solver stages of a ``minimize`` or ``sweep`` summary.

    ``references`` holds the expected J per requested stage, or ``None``
    for a stage that had no converged value when the references were
    recorded; such a stage may stall without being a wrong output.
    """
    stages = [] if summary is None else summary.get("stages", [])
    failed = wrong = 0
    notes = []
    after_stall = False  # the previous stage is a known stall that stalled
    for k, ref in enumerate(references):
        if k >= len(stages):
            failed += 1
            wrong += 1
            notes.append(f"stage {k}: missing" + (" (no summary.json)" if summary is None else ""))
            continue
        st = stages[k]
        res = st.get("residual_norm")
        stalled = not (isinstance(res, (int, float)) and res <= GRAD_TOL)
        warm_from_stall, after_stall = after_stall, stalled and ref is None
        if stalled:
            failed += 1
            if ref is None:
                notes.append(f"stage {k}: residual {res!r} > {GRAD_TOL:g} (known stall)")
            else:
                wrong += 1
                notes.append(f"stage {k}: residual {res!r} > {GRAD_TOL:g}")
            continue
        j = st.get("J")
        if ref is not None and not (
            isinstance(j, (int, float)) and abs(j - ref) <= J_REL_TOL * abs(ref)
        ):
            failed += 1
            if warm_from_stall:
                notes.append(f"stage {k}: J {j!r} differs from reference {ref!r} (after the known stall)")
            else:
                wrong += 1
                notes.append(f"stage {k}: J {j!r} differs from reference {ref!r}")
    return Verdict(len(references), failed, wrong, tuple(notes))


def check_verify(summary: dict | None) -> Verdict:
    """Gate one ``verify`` command on its ``all_passed`` flag."""
    if summary is not None and summary.get("all_passed") is True:
        return Verdict(1, 0, 0)
    names = [] if summary is None else [c["name"] for c in summary.get("checks", []) if not c["passed"]]
    return Verdict(1, 1, 1, (f"verify failed: {', '.join(names) or 'no summary'}",))


def fail_frac(v: Verdict) -> float:
    return v.failed / v.attempted if v.attempted else math.nan
