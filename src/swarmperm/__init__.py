"""Simulation and verification toolkit for permutation protocols of
oblivious robot swarms on the plane, under a fully synchronous
look-compute-move scheduler."""

from .errors import (
    AmbiguousLayering,
    CollisionDetected,
    DecodeFailure,
    DegenerateReference,
    DuplicatePoints,
    EmptyConfiguration,
    InvalidCaller,
    InvalidFrame,
    InvalidHop,
    InvalidLeader,
    MirrorSymmetric,
    NotAPermutation,
    NotCentral,
    NotOrderable,
    ReconstructFailure,
    SwarmError,
    VoteTie,
)
from .geometry import (
    CCW,
    CW,
    DEFAULT_TOL,
    Circle,
    Frame,
    Layer,
    Point,
    Tolerance,
    centroid,
    concentric_decomposition,
    smallest_enclosing_circle,
)
from .symmetry import (
    Analysis,
    Axis,
    analyze,
    center_robot_index,
    classify,
    mirror_axes,
    robots_on_axis,
    rotational_order,
    symmetry_report,
)
from .ordering import (
    CyclicOrder,
    VoteTally,
    agree_chirality,
    inner_polygon,
    order_from_leader,
    order_with_chirality,
    order_without_chirality,
    orient_axis,
    vote_tally,
    voting_elect,
)
from .protocols import (
    LeaderMark,
    PROTOCOL_IDS,
    Protocol,
    compute_movement_central,
    compute_movement_not_central,
    decode_hop,
    encode_hop,
    make_protocol,
    reconstruct,
    select_pivot,
)
from .engine import (
    ADVERSARY_KINDS,
    IDENTITY_FRAME,
    RoundRecord,
    RunTrace,
    Snapshot,
    adversary_frames,
    fsync_round,
    parse_trace,
    run,
    serialize_trace,
    to_local_snapshot,
)
from .verify import (
    MOVE_ALL,
    SPECS,
    VISIT_ALL,
    SpecVerdict,
    StepPermutation,
    check_k_step_spec,
    extract_permutation,
    visit_matrix,
)

__version__ = "0.1.0"
