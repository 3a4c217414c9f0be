"""Dilation tori with one boundary component.

Pentagon rooms, twist moves on their parameters, the renormalization
of their directional flows, and the geodesic flow on the resulting
moduli space.  The CLI entry point lives in `dilatorus.cli`.
"""

from .errors import (AtDiscontinuity, BudgetExhausted, DegenerateDoor,
                     DilatorusError, EmptyInterval, InadmissibleAtStep,
                     NonConvergence, NonOrientedBasis, NonSimplePentagon,
                     NotInHole, NotReducible, NotRenormalizable,
                     NotTransverse, OrientationLostToRounding, OutsideQ,
                     RationalRatio, VertexHit)
from .geometry import (DilationParams, GluedSide, Room, SL2Matrix, Vec2,
                       apply_sl2, build_room, canonicalize, geodesic_matrix,
                       projective_action, square_room)
from .intervalmaps import (AffineBranch, AffineChart, OrbitResult,
                           PeriodicCycle, PiecewiseAffineMap, TwoSlopeMap,
                           attracting_cycle_in_hole, evaluate, orbit,
                           restrict_to_image)
from .quadratics import QuadraticNumber
from .rauzy import (InductionStep, RauzyOutcome, StepClass, Subdivision,
                    TerminalKind, induce, interval_for_word,
                    iterate_induction, subdivision, survivor_intervals,
                    survivor_measure)
from .surface import (Cylinder, Direction, DirectionClass, DirectionKind,
                      Heading, RayTrace, ScanResult, SectionReduction,
                      TraceEnd, classify_direction, find_cylinders,
                      first_return_map, rotation_number, trace_ray)
from .teichmuller import (FlowSample, MonitorFlag, MonitorReport, distortion,
                          divergence_monitor, flow, track_direction_interval)
from .twists import (ContractionResult, Holonomy, HolonomyClass,
                     ReachReport, TwistGenerator, WordResult,
                     apply_word, gauss_contraction, holonomy_class,
                     reach_target, twist_mu, word_from_string,
                     word_to_string)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
