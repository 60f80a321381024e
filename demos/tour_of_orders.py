"""Shared cyclic orders from hostile viewpoints.

Every robot sees the world through its own frame: rotated, scaled,
translated to put itself at the origin.  As long as no frame is
mirrored, the sweep order about the centroid comes out the same for
everyone.  This script builds one ragged configuration and lets eight
disagreeing observers derive the order independently.
"""

import math
import random

from swarmperm import (
    Frame,
    Point,
    order_with_chirality,
    to_local_snapshot,
)

rng = random.Random(4)
pts = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(7)]

print("configuration:")
for i, p in enumerate(pts):
    print(f"  robot {i}: ({p.x:+.3f}, {p.y:+.3f})")

orders = set()
for trial in range(8):
    frames = [Frame(rng.uniform(0, 2 * math.pi), False, rng.uniform(0.5, 2.0))
              for _ in pts]
    for i in range(len(pts)):
        snap = to_local_snapshot(pts, frames, i)
        order = order_with_chirality(snap.local_points)
        orders.add(order.canonical())

print(f"\n8 frame assignments x {len(pts)} observers -> "
      f"{len(orders)} distinct cyclic order(s)")
(only,) = orders
print(f"agreed order: {' -> '.join(map(str, only.seq))} -> ...")
