"""Spans around linemaze's public entry points, recorded from outside.

``Tracer.install()`` replaces each traced function with a wrapper on every
``linemaze`` module binding that holds it (``linemaze.cli.explore_map``,
``linemaze.mapping_explorer.match_point``, ...), so calls made through any
import see the wrapper. Each wrapper records one span: name, start, end,
parent and a few counts read from the arguments and the result. Spans stay
in memory; ``layer_metrics`` turns them into the per-layer metrics and
``dump`` writes them out.
"""

import functools
import json
import sys
import time

# (module, function) pairs wrapped by the tracer. The span name is
# "<module tail>.<function>".
TARGETS = (
    ("linemaze.maze_model", "parse_maze"),
    ("linemaze.maze_model", "make_maze"),
    ("linemaze.motion_sim", "simulate_segment"),
    ("linemaze.odometry", "estimate_length"),
    ("linemaze.odometry", "calibration_from_motion"),
    ("linemaze.mapping_explorer", "explore_map"),
    ("linemaze.mapping_explorer", "match_point"),
    ("linemaze.mapping_explorer", "next_target"),
    ("linemaze.simple_explorer", "explore_simple"),
    ("linemaze.simple_explorer", "reduce_tape"),
    ("linemaze.simple_explorer", "replay"),
    ("linemaze.graph_path", "build_graph"),
    ("linemaze.graph_path", "dijkstra"),
    ("linemaze.graph_path", "graph_from_maze"),
    ("linemaze.svgplot", "render_svg"),
    ("linemaze.cli", "cmd_solve"),
    ("linemaze.cli", "cmd_tableone"),
    ("linemaze.cli", "cmd_plot"),
)


def _walked_edges(state):
    return len({frozenset(p) for p in zip(state.point, state.point[1:])})


# Counts read off a call: span name -> f(args, result) -> {count: value}.
_COUNTS = {
    "maze_model.parse_maze": lambda a, r: {"edges": len(r.edges)},
    "motion_sim.simulate_segment": lambda a, r: {
        "cm": a[0], "pivots": r.n_right + r.n_left},
    "mapping_explorer.match_point": lambda a, r: {"new": int(r is None)},
    "mapping_explorer.explore_map": lambda a, r: {
        "traversals": len(r.point) - 1, "walked": _walked_edges(r)},
    "simple_explorer.explore_simple": lambda a, r: {"tape": len(r.sums)},
}

# Per-layer metric -> unit. The order is the order of BENCHMARK.json.
UNITS = {
    "maze_model.parse_s": "s",
    "maze_model.make_maze_s": "s",
    "maze_model.edges": "count",
    "motion_sim.simulate_segment_s": "s",
    "motion_sim.calls": "count",
    "motion_sim.sim_cm": "cm",
    "motion_sim.pivots": "count",
    "motion_sim.us_per_cm": "us/cm",
    "odometry.estimate_length_s": "s",
    "odometry.calls": "count",
    "odometry.calibration_s": "s",
    "mapping_explorer.explore_map_self_s": "s",
    "mapping_explorer.match_point_s": "s",
    "mapping_explorer.match_point_calls": "count",
    "mapping_explorer.new_point_frac": "ratio",
    "mapping_explorer.next_target_s": "s",
    "mapping_explorer.next_target_calls": "count",
    "mapping_explorer.traversals": "count",
    "mapping_explorer.edges_per_traversal": "ratio",
    "simple_explorer.explore_simple_s": "s",
    "simple_explorer.replay_s": "s",
    "simple_explorer.tape_len": "count",
    "graph_path.build_graph_s": "s",
    "graph_path.dijkstra_s": "s",
    "graph_path.dijkstra_calls": "count",
    "graph_path.graph_from_maze_s": "s",
    "svgplot.render_svg_s": "s",
    "cli.self_s": "s",
    "cli.resimulated_segments": "count",
    "trace_overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "parent", "op", "t0", "t1", "counts", "child_s")

    def __init__(self, name, parent, op, t0):
        self.name = name
        self.parent = parent
        self.op = op
        self.t0 = t0
        self.t1 = t0
        self.counts = None
        self.child_s = 0.0

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        # Children run nested and one at a time, so the part of the span
        # they cover is the sum of their durations.
        return self.dur - self.child_s


class Tracer:
    """Records spans; ``clock`` gives the times (seconds, any origin)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None  # index of the operation being run, set by the caller
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts = _COUNTS.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.op, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper

    def install(self):
        """Put a wrapper on every linemaze binding of each target."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "linemaze"
                                         or n.startswith("linemaze."))]
        for module_name, attr in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap("%s.%s" % (module_name.split(".")[-1], attr),
                                 fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self):
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched = []


def dump(spans, path):
    """Write spans as JSON lines: index, name, parent index, op, start, end,
    counts."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([
                i, s.name, None if s.parent is None else index[id(s.parent)],
                s.op, round(s.t0, 7), round(s.t1, 7), s.counts]) + "\n")


def _under(span, names):
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def layer_metrics(spans, scale, passes):
    """Per-layer metrics per pass from ``spans``.

    ``scale[op]`` rescales the times of operation ``op`` to reference
    machine speed (see speedref); counts are not rescaled. Totals are
    divided by ``passes``.
    """
    t = {}  # span name -> total duration
    own = {}  # span name -> total self time
    n = {}  # span name -> call count
    c = {}  # count name -> total
    resim = 0
    for s in spans:
        k = scale[s.op]
        t[s.name] = t.get(s.name, 0.0) + s.dur * k
        own[s.name] = own.get(s.name, 0.0) + s.self_s * k
        n[s.name] = n.get(s.name, 0) + 1
        for key, value in (s.counts or {}).items():
            c[key] = c.get(key, 0) + value
        if (s.name == "motion_sim.simulate_segment"
                and _under(s, ("cli.cmd_solve", "cli.cmd_plot"))
                and not _under(s, ("mapping_explorer.explore_map",))):
            resim += 1
    ts = lambda name: t.get(name, 0.0)
    calls = lambda name: n.get(name, 0)
    ratio = lambda a, b: a / b if b else 0.0
    cli_self = sum(own.get("cli." + x, 0.0)
                   for x in ("cmd_solve", "cmd_tableone", "cmd_plot"))
    values = {
        "maze_model.parse_s": own.get("maze_model.parse_maze", 0.0),
        "maze_model.make_maze_s": ts("maze_model.make_maze"),
        "maze_model.edges": c.get("edges", 0),
        "motion_sim.simulate_segment_s": ts("motion_sim.simulate_segment"),
        "motion_sim.calls": calls("motion_sim.simulate_segment"),
        "motion_sim.sim_cm": c.get("cm", 0.0),
        "motion_sim.pivots": c.get("pivots", 0),
        "motion_sim.us_per_cm": 1e6 * ratio(ts("motion_sim.simulate_segment"),
                                            c.get("cm", 0.0)),
        "odometry.estimate_length_s": ts("odometry.estimate_length"),
        "odometry.calls": calls("odometry.estimate_length"),
        "odometry.calibration_s": ts("odometry.calibration_from_motion"),
        "mapping_explorer.explore_map_self_s":
            own.get("mapping_explorer.explore_map", 0.0),
        "mapping_explorer.match_point_s": ts("mapping_explorer.match_point"),
        "mapping_explorer.match_point_calls":
            calls("mapping_explorer.match_point"),
        "mapping_explorer.new_point_frac":
            ratio(c.get("new", 0), calls("mapping_explorer.match_point")),
        "mapping_explorer.next_target_s": ts("mapping_explorer.next_target"),
        "mapping_explorer.next_target_calls":
            calls("mapping_explorer.next_target"),
        "mapping_explorer.traversals": c.get("traversals", 0),
        "mapping_explorer.edges_per_traversal":
            ratio(c.get("walked", 0), c.get("traversals", 0)),
        "simple_explorer.explore_simple_s":
            ts("simple_explorer.explore_simple"),
        "simple_explorer.replay_s": (ts("simple_explorer.replay")
                                     + ts("simple_explorer.reduce_tape")),
        "simple_explorer.tape_len": c.get("tape", 0),
        "graph_path.build_graph_s": ts("graph_path.build_graph"),
        "graph_path.dijkstra_s": ts("graph_path.dijkstra"),
        "graph_path.dijkstra_calls": calls("graph_path.dijkstra"),
        "graph_path.graph_from_maze_s": ts("graph_path.graph_from_maze"),
        "svgplot.render_svg_s": ts("svgplot.render_svg"),
        "cli.self_s": cli_self,
        "cli.resimulated_segments": resim,
    }
    per_pass = ("s", "count", "cm")
    return {k: (v / passes if UNITS[k] in per_pass else v)
            for k, v in values.items()}
