"""The order plan: the jet order of every piece the engine builds.

The truncation lemma: a degree-d coefficient of a truncated product,
inverse or d reads only operand coefficients of degree <= d (<= d + 1
through d), and every kernel truncates its operands to the order its result
keeps before it multiplies, so a piece built at any order its readers take
holds the same coefficients, bit for bit (truncated Taylor propagation:
Griewank and Walther, Evaluating Derivatives, 2nd ed., ch. 13).  A reader
of values takes order 0, plus one for each d it takes.

The plan holds the fixed choices; README "Jet orders" gives their reasons.
Rules worked out from the input stay where they apply: a gauge element and
the e a dressing builds u0 from one order above the connection they act on
(gamma^-1 d gamma, u^-1 du), a Weyl factor phi one above the zeta = d phi
its reader takes, and build_normal's e^-1 one below its e.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class OrderPlan:
    """The fixed jet orders of one model kind, built by :func:`order_plan`."""

    build: int              # e and its normal connection at each point
    route: int = 1          # the connection of every route that reads values
    oracle: int = 3         # e of the classical oracle and the rescaled route
    group_law: int = 1      # z, zeta, e and u0 of the Weyl group law
    gr_vielbein: int = 2    # e of the Poincare dressing and its oracle
    ghost: int = 2          # the ghost fields' floor and the eps of the Weyl laws


def order_plan(kind):
    """The :class:`OrderPlan` of the model ``kind``, "mobius" or "poincare"."""
    return OrderPlan(build={"mobius": 4, "poincare": 3}[kind])
