"""
Coherent bets and the prices they imply
=======================================

Two coins are drawn in order, each landing black (b) or white (w).
A gamble assigns an exact rational payoff to each of the four
outcomes.  Judging some gambles desirable commits you to more: every
nonnegative combination of accepted gambles, sweetened by anything
surely nonnegative, must be acceptable too.  This script walks that
chain: first the sanity check on a set of judgments, then the
membership question, then the buying and selling prices the judgments
imply, and finally what happens after part of the outcome is revealed.
"""

from fractions import Fraction

from desir import (
    DesirCone,
    Gamble,
    SequenceSpace,
    avoids_nonpositivity,
    lower_prevision,
    membership_report,
    natural_extension_member,
    upper_prevision,
)
from desir.cones import updated_member

F = Fraction
space = SequenceSpace(("b", "w"), 2)
points = space.points()


def show(name, g):
    cells = "  ".join(f"{''.join(x)}:{g[x]}" for x in points)
    print(f"  {name}: {cells}")


# ----------------------------------------------------------------------
# 1. A single judgment and its sanity check
# ----------------------------------------------------------------------
# The bet wins 1 when the colors differ and loses 3 when they match.
# Accepting it is a real commitment, but not a self-defeating one: no
# way of combining it with nonnegative weights produces a gamble that
# never wins.

different = Gamble.from_mapping(
    space, {("b", "b"): -3, ("b", "w"): 1, ("w", "b"): 1, ("w", "w"): -3}
)
print("A bet on the colors differing:")
show("different", different)
report = avoids_nonpositivity([different], [], space)
print(f"  avoids sure loss: {report.avoids}")
print()

# ----------------------------------------------------------------------
# 2. The mirror bet wrecks it
# ----------------------------------------------------------------------
# Also accepting the reflected bet (win on matches, lose on
# differences) is incoherent: an even blend of the two loses 1 whatever
# happens.  The checker returns the blend as a certificate.

mirror = Gamble.from_mapping(
    space, {("b", "b"): 1, ("b", "w"): -3, ("w", "b"): -3, ("w", "w"): 1}
)
print("Adding the mirror bet:")
show("mirror", mirror)
both = avoids_nonpositivity([different, mirror], [], space)
print(f"  avoids sure loss: {both.avoids}")
witness = both.witness
weights = ", ".join(str(w) for w in witness.generator_weights)
print(f"  witness weights on (different, mirror): {weights}")
show("witness combination", witness.combination)
print()

# ----------------------------------------------------------------------
# 3. What else the single judgment commits you to
# ----------------------------------------------------------------------
# Membership in the generated cone is decided exactly, and a positive
# answer comes with the combination that proves it.

cone = DesirCone(space, [different])
sweetened = different + Gamble.constant(space, F(1, 2))
verdict = membership_report(cone, sweetened)
print("The same bet plus a flat 1/2 bonus:")
show("sweetened", sweetened)
print(f"  accepted: {verdict.member}")
print(f"  generator weights: {', '.join(str(w) for w in verdict.generator_weights)}")
pieces = "  ".join(f"{''.join(x)}:{w}" for x, w in verdict.indicator_weights if w)
print(f"  indicator weights: {pieces}")

fee = different - Gamble.constant(space, F(1, 10))
print("The same bet minus a 1/10 entry fee:")
show("fee", fee)
print(f"  accepted: {natural_extension_member(cone, fee)}")
print()

# ----------------------------------------------------------------------
# 4. Buying and selling prices
# ----------------------------------------------------------------------
# Now the judgments are about one event: the colors differ.  Buying it
# for 1/2 and selling it for 3/5 are both acceptable trades.  The
# implied price interval for the event itself is exactly [1/2, 3/5],
# and every gamble gets its bracket from the same machinery.

event_differ = Gamble.indicator(space, [("b", "w"), ("w", "b")])
buy = event_differ - Gamble.constant(space, F(1, 2))
sell = Gamble.constant(space, F(3, 5)) - event_differ
trades = DesirCone(space, [buy, sell])
print("Trading the event 'colors differ' (buy at 1/2, sell at 3/5):")
lo = lower_prevision(trades, event_differ)
hi = upper_prevision(trades, event_differ)
print(f"  price interval for the event: [{lo.value}, {hi.value}]")
# The trades are symmetric in the two positions, so they say nothing
# about an asymmetric event: its bracket stays vacuous.
first_black = Gamble.indicator(space, [("b", "b"), ("b", "w")])
lo_b = lower_prevision(trades, first_black)
hi_b = upper_prevision(trades, first_black)
print(f"  price interval for 'first draw is b': [{lo_b.value}, {hi_b.value}]")
print()

# ----------------------------------------------------------------------
# 5. After the first draw is revealed black
# ----------------------------------------------------------------------
# A judgment with genuinely conditional content: a bet that is called
# off unless the first draw is b.  Conditioning keeps exactly the
# acceptable gambles whose payoff lives inside the event.  Scaling the
# contingent bet survives; betting the other way does not; and a bonus
# that only pays outside the event cannot help once the event is known.

event = [("b", "b"), ("b", "w")]
contingent = Gamble.from_mapping(
    space, {("b", "b"): -1, ("b", "w"): 2, ("w", "b"): 0, ("w", "w"): 0}
)
conditional = DesirCone(space, [contingent])
print("Judged desirable: win 2 on bw, lose 1 on bb, called off otherwise.")
print("Given that the first draw is b:")
scaled = F(3, 2) * contingent
show("scaled bet", scaled)
print(f"  accepted: {updated_member(conditional, event, scaled)}")
reversed_bet = Gamble.from_mapping(
    space, {("b", "b"): 2, ("b", "w"): -2, ("w", "b"): 0, ("w", "w"): 0}
)
show("reversed bet", reversed_bet)
print(f"  accepted: {updated_member(conditional, event, reversed_bet)}")
outside_bonus = contingent + Gamble.indicator(space, [("w", "b")])
show("bet plus off-event bonus", outside_bonus)
print(f"  accepted unconditionally: {natural_extension_member(conditional, outside_bonus)}")
print(f"  accepted given the event: {updated_member(conditional, event, outside_bonus)}")
