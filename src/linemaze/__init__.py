"""linemaze: line-maze robot simulation, mapping, odometry correction, and
shortest-path extraction.

The package simulates a differential-drive line follower exploring mazes of
taped lines. It provides two explorers (a junction-tape explorer for
loop-free mazes and a coordinate-mapping explorer for arbitrary ones), a
forward motion model with wheel encoders, inverse odometry that corrects
encoder readings back to true segment lengths, graph extraction with
deterministic Dijkstra queries, and a CLI (``linemaze``) tying it together.
"""

from .errors import (ArcDomainError, CalibrationError, ExplorationError,
                     GraphQueryError, InconsistencyError, LinemazeError,
                     MazeSyntaxError, MazeValidationError,
                     MotionDivergenceError)
from .graph_path import (PathResult, build_graph, dijkstra, graph_from_maze,
                         shortest_paths)
from .mapping_explorer import (ExplorationState, explore_map, match_point,
                               next_target)
from .maze_model import (MazeEdge, MazeNode, MazeSpec, Point2D,
                         bundled_maze_text, make_maze, parse_maze,
                         serialize_maze)
from .motion_sim import (EncoderLog, MotionParams, radius_from_ratio,
                         simulate_segment)
from .odometry import (CalibConstants, arc_len_from_height,
                       calibration_from_motion, chord_from_arc,
                       estimate_length, linearize_arc, linearize_basic,
                       predict_without_encoder, residual_arc)
from .simple_explorer import (PREF_LFRD, PREF_RFLD, PREFERENCES, JunctionTape,
                              explore_simple, reduce_tape, replay)

__version__ = "0.1.0"

__all__ = [
    "ArcDomainError", "CalibrationError", "ExplorationError",
    "GraphQueryError", "InconsistencyError", "LinemazeError",
    "MazeSyntaxError", "MazeValidationError", "MotionDivergenceError",
    "PathResult", "build_graph", "dijkstra", "graph_from_maze",
    "shortest_paths",
    "ExplorationState", "explore_map", "match_point", "next_target",
    "MazeEdge", "MazeNode", "MazeSpec", "Point2D", "bundled_maze_text",
    "make_maze", "parse_maze", "serialize_maze",
    "EncoderLog", "MotionParams", "radius_from_ratio", "simulate_segment",
    "CalibConstants", "arc_len_from_height", "calibration_from_motion",
    "chord_from_arc", "estimate_length", "linearize_arc", "linearize_basic",
    "predict_without_encoder", "residual_arc",
    "PREF_LFRD", "PREF_RFLD", "PREFERENCES", "JunctionTape", "explore_simple",
    "reduce_tape", "replay",
    "__version__",
]
