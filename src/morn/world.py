"""Synthetic navigation world: occupancy-grid maps with geodesic
distances, a stochastic evidence generator standing in for open-vocabulary
perception, and a frontier-exploring reactive navigator.

The navigator is deliberately blind to budgets and meta-states: it reads
only the map, its own coverage and the evidence stream, so the executive
can be deleted without changing a single primitive action until the first
intervention.

Fixture maps use a plain-text format, one character per cell:
'#' = wall, '.' = free, 'S' = spawn, digits 1-9 = goal positions
(goal cells are free). The border of every map must be wall.
"""

from __future__ import annotations

import copy
import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

FREE = 0
WALL = 1

Cell = tuple[int, int]  # (row, col)


class OccupiedCellError(ValueError):
    pass


@dataclass
class GridMap:
    """An occupancy grid. Beside the cells it derives, once, the free flag
    and the `(row, col)` key of every cell; neither takes part in
    comparison or repr. Nothing writes to a map after it is built, so
    every arm of an episode can share one."""

    # WALL/FREE in row-major order (cell (r, c) at index r * width + c);
    # the border must be wall
    cells: list[int]
    height: int
    width: int
    cell_size: float  # meters per cell
    spawn: Cell
    # free flags, indexed like cells
    free: list[bool] = field(init=False, repr=False, compare=False)
    # (row, col) of every cell, indexed like cells
    coords: list[Cell] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h, w, cells = self.height, self.width, self.cells
        if len(cells) != h * w:
            raise ValueError(f"{len(cells)} cells do not fill a {h} x {w} map")
        middle_rows = (i for r in range(1, h - 1) for i in (r * w, r * w + w - 1))
        for i in (*range(w), *middle_rows, *range((h - 1) * w, h * w)):
            if cells[i] == FREE:
                raise ValueError(f"map border cell {divmod(i, w)} is free; "
                                 "the border must be wall")
        self.free = [x == FREE for x in cells]
        self.coords = list(product(range(h), range(w)))

    def is_free(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width and self.free[r * self.width + c]


def parse_grid(text: str, cell_size: float = 0.5) -> tuple[GridMap, dict[int, Cell]]:
    """Parse the plain-text fixture format. Returns the map and the goal
    positions keyed by their digit."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    h = len(lines)
    w = max(len(ln) for ln in lines)
    cells = [WALL] * (h * w)
    spawn: Optional[Cell] = None
    goals: dict[int, Cell] = {}
    for r, ln in enumerate(lines):
        for c, ch in enumerate(ln):
            if ch == "#":
                continue
            if ch == ".":
                cells[r * w + c] = FREE
            elif ch == "S":
                if spawn is not None:
                    raise ValueError(f"map has a second spawn 'S' at {(r, c)}; "
                                     f"the first is at {spawn}")
                cells[r * w + c] = FREE
                spawn = (r, c)
            elif ch.isdigit() and ch != "0":
                if int(ch) in goals:
                    raise ValueError(f"goal {ch} appears twice, at {goals[int(ch)]} "
                                     f"and {(r, c)}")
                cells[r * w + c] = FREE
                goals[int(ch)] = (r, c)
            elif ch == " ":
                continue
            else:
                raise ValueError(f"unknown map character {ch!r} at {(r, c)}")
    if spawn is None:
        raise ValueError("map has no spawn cell 'S'")
    return GridMap(cells, h, w, cell_size, spawn), goals


def _search(gmap: GridMap, start: int, done: bytes | bytearray
            ) -> tuple[list[list[int]], Optional[int]]:
    """Breadth-first search of the free cells from flat index `start`,
    expanding neighbours up, down, left, right; the first discovered cell
    whose `done` flag (indexed like the cells) is 0 ends it. Returns the
    hop levels (level k lists the cells first reached in k hops, in
    discovery order) and the cell the search ended at, None if every
    reached cell was done. A search that ends at a cell returns the levels
    before that cell's level. Beside one zeroed reached mark per cell it
    builds only the levels, which grow with the cells it reaches."""
    free = gmap.free
    w = gmap.width
    reached = bytearray(len(free))
    reached[start] = 1
    level = [start]
    levels = [level]
    while True:
        nxt_level = []
        for cur in level:
            for nxt in (cur - w, cur + w, cur - 1, cur + 1):
                if free[nxt] and not reached[nxt]:
                    reached[nxt] = 1
                    if not done[nxt]:
                        return levels, nxt
                    nxt_level.append(nxt)
        if not nxt_level:
            return levels, None
        levels.append(nxt_level)
        level = nxt_level


_ONES5 = b"\x01" * 5


def _path(gmap: GridMap, start: Cell, done: bytes | bytearray) -> Optional[list[Cell]]:
    """Shortest path from start (exclusive) to the nearest cell whose
    `done` flag is 0, or None if none is reachable: the path `_search`
    finds, ties included, mostly without running it.

    Covered square. Suppose the 5 x 5 square around the start lies inside
    the map and all 25 of its `done` flags are 1. Every cell within two
    hops lies in that square, so it is done. A three-hop cell is at
    Manhattan distance 1 or 3; all of them lie in the square except the
    four cells three steps straight up, down, left and right, and each of
    those is reached in three hops only along its straight line. The
    search discovers them in the order up, down, left, right, since each
    straight line's second cell is discovered by the first cell of the
    line, and the first cells by the start in that order. So the answer is
    the first of the four whose line is free and that is not done; if none
    is, the search goes on past three hops and must run.

    Every other request runs the search, and the path walks back through
    its levels: a cell's parent is the first cell of the level before it
    that neighbours it.
    """
    if not gmap.is_free(start):
        raise OccupiedCellError(f"start cell {start} is not free")
    w = gmap.width
    r, c = start
    i = r * w + c
    if 2 <= r < gmap.height - 2 and 2 <= c < w - 2:
        j = i - 2 * w - 2
        if (done[j:j + 5] == done[j + w:j + w + 5] == done[j + 2 * w:j + 2 * w + 5]
                == done[j + 3 * w:j + 3 * w + 5] == done[j + 4 * w:j + 4 * w + 5] == _ONES5):
            free = gmap.free
            # the border is wall, so a free second cell has a third inside the map
            for step in (-w, w, -1, 1):
                a = i + step
                b = a + step
                if free[a] and free[b] and free[b + step] and not done[b + step]:
                    return [divmod(a, w), divmod(b, w), divmod(b + step, w)]
    levels, cell = _search(gmap, i, done)
    if cell is None:
        return None
    path = [divmod(cell, w)]
    for level in reversed(levels[1:]):
        for prev in level:
            if abs(prev - cell) in (1, w):
                cell = prev
                break
        path.append(divmod(cell, w))
    path.reverse()
    return path


def distance_field(gmap: GridMap, target: Cell) -> dict[Cell, float]:
    """Geodesic distance in meters from every cell, keyed by (row, col), to
    `target` over the 4-connected free grid; inf where disconnected or
    walled."""
    if not gmap.is_free(target):
        raise OccupiedCellError(f"target cell {target} is not free")
    n = len(gmap.cells)
    levels, _ = _search(gmap, target[0] * gmap.width + target[1], b"\x01" * n)
    meters = [math.inf] * n
    size = gmap.cell_size
    for hops, level in enumerate(levels):
        m = hops * size
        for i in level:
            meters[i] = m
    return dict(zip(gmap.coords, meters))


def geodesic_distance(gmap: GridMap, start: Cell, goal: Cell) -> float:
    """Shortest-path length in meters between two free cells; inf if
    disconnected."""
    if not gmap.is_free(goal):
        raise OccupiedCellError(f"target cell {goal} is not free")
    path = bfs_path(gmap, start, goal)
    return math.inf if path is None else len(path) * gmap.cell_size


def bfs_path(gmap: GridMap, start: Cell, target: Cell) -> Optional[list[Cell]]:
    """Shortest 4-connected path from start to target (exclusive of
    start), or None if unreachable."""
    if start == target:
        return []
    if not gmap.is_free(target):
        return None
    done = bytearray(b"\x01") * len(gmap.cells)
    done[target[0] * gmap.width + target[1]] = 0
    return _path(gmap, start, done)


def line_of_sight(gmap: GridMap, a: Cell, b: Cell) -> bool:
    """Integer-grid ray cast (Bresenham) with no wall intersection."""
    free, w = gmap.free, gmap.width
    r0, c0 = a
    r1, c1 = b
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 > r0 else -1
    sc = 1 if c1 > c0 else -1
    err = dr - dc
    r, c = r0, c0
    while True:
        if not free[r * w + c]:
            return False
        if (r, c) == (r1, c1):
            return True
        e2 = 2 * err
        if e2 > -dc:
            err -= dc
            r += sr
        if e2 < dr:
            err += dr
            c += sc


@dataclass
class GoalInstance:
    goal_id: int
    category: str
    position: Cell  # nominal position; hidden from the navigator
    detectability: float = 0.9
    present: bool = True


@dataclass
class PerceptionParams:
    base_noise_mean: float = 0.10  # baseline score level
    noise_std: float = 0.05
    signal_amplitude: float = 0.80
    signal_range: float = 5.0  # meters
    false_positive_rate: float = 0.02
    spike_amplitude: float = 0.80  # one-step false-positive height

    def validate(self) -> None:
        if not (0.0 <= self.false_positive_rate <= 1.0):
            raise ValueError("false_positive_rate must be in [0, 1]")
        if self.signal_range <= 0:
            raise ValueError("signal_range must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        # a detection must raise the score, whose floor is 0, and the
        # navigator's approach trigger (base + signal_amplitude / 2) must
        # sit above what noise alone emits
        if self.signal_amplitude <= 0:
            raise ValueError("signal_amplitude must be positive")
        if self.spike_amplitude < 0:
            raise ValueError("spike_amplitude must be nonnegative")
        if self.base_noise_mean < 0:
            raise ValueError("base_noise_mean must be nonnegative")


def emit_evidence(
    goal: GoalInstance,
    pose: Cell,
    gmap: GridMap,
    params: PerceptionParams,
    rng: random.Random,
    distance: float,
) -> tuple[float, bool]:
    """One evidence score in [0, 1] for the active goal from the current
    pose. Returns (score, detected).

    A true detection requires the goal to be present, within signal
    range along the geodesic, in line of sight, and to pass a
    detectability draw; it adds a range-decayed amplitude on top of the
    noisy baseline. Otherwise the baseline is emitted, occasionally
    replaced by a one-step false-positive spike.

    `distance` is the geodesic distance in meters from pose to the goal,
    inf when the goal is unreachable.
    """
    r, c = pose
    if not (0 <= r < gmap.height and 0 <= c < gmap.width and gmap.free[r * gmap.width + c]):
        raise OccupiedCellError(f"pose {pose} is not free")
    p = params
    noise = rng.gauss(0.0, p.noise_std) if p.noise_std > 0 else 0.0

    detected = False
    if goal.present and distance <= p.signal_range and line_of_sight(gmap, pose, goal.position):
        detected = rng.random() < goal.detectability

    if detected:
        score = p.base_noise_mean + p.signal_amplitude * math.exp(-distance / p.signal_range) + noise
    elif p.false_positive_rate > 0 and rng.random() < p.false_positive_rate:
        score = p.base_noise_mean + p.spike_amplitude + noise
    else:
        score = p.base_noise_mean + noise
    # max(0.0, min(score, 1.0)) without the two builtin calls
    score = 1.0 if 1.0 < score else score
    return (score if score > 0.0 else 0.0, detected)


class Navigator:
    """Frontier-coverage explorer with an evidence-triggered approach.
    Never reads meta-states or budgets.

    Without a believed target it explores: it plans a shortest path to the
    nearest unvisited free cell and follows it, marking coverage in a small
    sensing square around the pose. Evidence above the approach trigger
    for two consecutive steps locks in a believed target, which it then
    approaches along the geodesic. Sustained low evidence releases the
    target and resumes exploration.
    """

    TRIGGER_STEPS = 2
    RELEASE_STEPS = 5
    SENSE_RADIUS = 2  # half-width of the coverage square, in cells
    # MARKS[n]: n coverage marks, for a row or column of the square
    MARKS = tuple(b"\x01" * n for n in range(2 * SENSE_RADIUS + 2))

    def __init__(self, gmap: GridMap, params: PerceptionParams):
        self.gmap = gmap
        self.pose: Cell = gmap.spawn
        # the navigator approaches while it holds a target, else explores
        self.believed_target: Optional[Cell] = None
        # coverage flags, indexed like gmap.cells
        self.visited = bytearray(len(gmap.cells))
        self.approach_trigger = params.base_noise_mean + params.signal_amplitude / 2.0
        self._path: deque[Cell] = deque()
        self._high_streak = 0
        self._low_streak = 0
        self._exhausted = False
        self._mark_visited()

    def begin_goal_context(self) -> None:
        """Fresh search for a newly activated goal: coverage and any
        believed target are reset; the pose is kept."""
        self.visited[:] = bytes(len(self.visited))
        self.believed_target = None
        self._path.clear()
        self._high_streak = 0
        self._low_streak = 0
        self._exhausted = False
        self._mark_visited()

    def copy(self) -> Navigator:
        """An independent navigator in the same state, on the same map."""
        new = copy.copy(self)
        new.visited = bytearray(self.visited)
        new._path = deque(self._path)
        return new

    def coverage_fraction(self) -> float:
        free = self.gmap.free
        return sum(v for v, f in zip(self.visited, free) if f) / sum(free)

    def _mark_visited(self) -> None:
        """Mark the whole sensing square around the pose."""
        r, c = self.pose
        s = self.SENSE_RADIUS
        h, w = self.gmap.height, self.gmap.width
        lo, hi = max(0, c - s), min(w, c + s + 1)
        marks = self.MARKS[hi - lo]
        for row in range(max(0, r - s), min(h, r + s + 1)):
            self.visited[row * w + lo: row * w + hi] = marks

    def _plan_to_nearest_unvisited(self) -> Optional[list[Cell]]:
        """Shortest path (exclusive of the pose) to the nearest
        reachable unvisited free cell, or None when coverage is done."""
        return _path(self.gmap, self.pose, self.visited)

    def observe(self, evidence: float, detected: bool, goal: GoalInstance,
                rng: random.Random) -> None:
        """Feed the current evidence sample before stepping; may lock in or
        release a believed target."""
        if evidence > self.approach_trigger:
            self._high_streak += 1
            self._low_streak = 0
        else:
            self._high_streak = 0
            self._low_streak += 1

        if self.believed_target is None and self._high_streak >= self.TRIGGER_STEPS:
            target = self._locate_source(detected, goal, rng)
            if target is not None:
                self.believed_target = target
                self._path.clear()
        elif self.believed_target is not None and self._low_streak >= self.RELEASE_STEPS:
            self.believed_target = None
            self._path.clear()

    def _locate_source(self, detected: bool, goal: GoalInstance,
                       rng: random.Random) -> Optional[Cell]:
        # A genuine detection localizes the emitting goal; a trigger fed
        # by false positives latches onto a phantom cell near the pose.
        if detected and goal.present:
            return goal.position
        r, c = self.pose
        candidates = [(r + dr, c + dc) for dr in range(-6, 7) for dc in range(-6, 7)
                      if self.gmap.is_free((r + dr, c + dc))]
        return candidates[rng.randrange(len(candidates))] if candidates else None

    def step(self) -> str:
        """Advance one primitive step. Returns the action taken
        ('move' or 'stay'). A stay leaves coverage as it is: the sensing
        square around the pose is marked whenever the pose or the coverage
        changes."""
        if self.believed_target is not None:
            if self.pose == self.believed_target:
                return "stay"
            if not self._path:
                path = bfs_path(self.gmap, self.pose, self.believed_target)
                if path is None:
                    # phantom or unreachable target: give up on it
                    self.believed_target = None
                else:
                    self._path = deque(path)

        if self.believed_target is None and not self._path:
            if self._exhausted:
                return "stay"
            path = self._plan_to_nearest_unvisited()
            if path is None:
                self._exhausted = True
                return "stay"
            self._path = deque(path)

        # A planned path is never empty and leads from cell to neighbouring
        # cell, so the sensing square around the old pose is marked and of
        # the new square only the edge row or column it moved into is not.
        r0, c0 = self.pose
        self.pose = r, c = self._path.popleft()
        s = self.SENSE_RADIUS
        h, w = self.gmap.height, self.gmap.width
        # lo, hi = max(0, x - s), min(size, x + s + 1) without the two calls
        if r != r0:
            row = r + s if r > r0 else r - s
            if 0 <= row < h:
                lo = c - s if c > s else 0
                hi = c + s + 1 if c + s < w else w
                self.visited[row * w + lo: row * w + hi] = self.MARKS[hi - lo]
        else:
            col = c + s if c > c0 else c - s
            if 0 <= col < w:
                lo = r - s if r > s else 0
                hi = r + s + 1 if r + s < h else h
                self.visited[lo * w + col: hi * w: w] = self.MARKS[hi - lo]
        return "move"


@dataclass
class WorldParams:
    rooms_x: int = 3
    rooms_y: int = 3
    room_min: int = 6
    room_max: int = 10
    extra_door_prob: float = 0.25
    cell_size: float = 0.5

    def validate(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if not (1 <= self.room_min <= self.room_max):
            raise ValueError("room sizes need 1 <= room_min <= room_max")
        if not (0.0 <= self.extra_door_prob <= 1.0):
            raise ValueError("extra_door_prob must be in [0, 1]")
        # a sealed goal needs a leaf room other than room 0
        if self.rooms_x < 1 or self.rooms_y < 1 or self.rooms_x * self.rooms_y < 2:
            raise ValueError("the room lattice needs rooms_x, rooms_y >= 1 and at least 2 rooms")


def generate_map(
    rng: random.Random,
    params: WorldParams,
    sealed_room: bool = False,
) -> tuple[GridMap, list[list[Cell]], Optional[int]]:
    """Procedural multi-room map: a rooms_y x rooms_x lattice of
    rectangular rooms joined by single-cell doors along a random spanning
    tree (plus optional extra doors).

    When `sealed_room` is set, one leaf room of the tree keeps its walls
    intact and its index is returned; its interior is unreachable from
    the rest of the map.

    Returns (map, per-room interior cells, sealed room index or None).
    """
    rx, ry = params.rooms_x, params.rooms_y
    widths = [rng.randint(params.room_min, params.room_max) for _ in range(rx)]
    heights = [rng.randint(params.room_min, params.room_max) for _ in range(ry)]
    # walls of thickness 1 between rooms and on the border
    col_off = [1]
    for wdt in widths:
        col_off.append(col_off[-1] + wdt + 1)
    row_off = [1]
    for hgt in heights:
        row_off.append(row_off[-1] + hgt + 1)
    total_w = col_off[-1]
    total_h = row_off[-1]
    cells = [WALL] * (total_h * total_w)

    rooms: list[list[Cell]] = []
    for j in range(ry):
        for i in range(rx):
            r0, c0 = row_off[j], col_off[i]
            for r in range(r0, r0 + heights[j]):
                cells[r * total_w + c0: r * total_w + c0 + widths[i]] = [FREE] * widths[i]
            rooms.append([(r, c) for r in range(r0, r0 + heights[j])
                          for c in range(c0, c0 + widths[i])])

    def room_index(i: int, j: int) -> int:
        return j * rx + i

    # spanning tree over the room lattice (randomized DFS)
    edges: list[tuple[int, int, tuple[int, int], tuple[int, int]]] = []
    visited_rooms = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        neigh = [(i + di, j + dj) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                 if 0 <= i + di < rx and 0 <= j + dj < ry and (i + di, j + dj) not in visited_rooms]
        if not neigh:
            stack.pop()
            continue
        ni, nj = neigh[rng.randrange(len(neigh))]
        visited_rooms.add((ni, nj))
        edges.append((room_index(i, j), room_index(ni, nj), (i, j), (ni, nj)))
        stack.append((ni, nj))

    sealed_idx: Optional[int] = None
    if sealed_room:
        # a leaf of the tree: appears exactly once as a tree endpoint
        degree: dict[int, int] = {}
        for a, b, _, _ in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        leaves = [k for k, d in degree.items() if d == 1 and k != room_index(0, 0)]
        sealed_idx = leaves[rng.randrange(len(leaves))]

    def carve_door(a: tuple[int, int], b: tuple[int, int]) -> None:
        (i0, j0), (i1, j1) = a, b
        if i0 == i1:  # vertical neighbors, door in horizontal wall
            j_hi = max(j0, j1)
            wall_r = row_off[j_hi] - 1
            c = col_off[i0] + rng.randrange(widths[i0])
            cells[wall_r * total_w + c] = FREE
        else:
            i_hi = max(i0, i1)
            wall_c = col_off[i_hi] - 1
            r = row_off[j0] + rng.randrange(heights[j0])
            cells[r * total_w + wall_c] = FREE

    for a, b, ra, rb in edges:
        if sealed_idx is not None and sealed_idx in (a, b):
            continue
        carve_door(ra, rb)

    # extra doors between adjacent rooms for loops
    for j in range(ry):
        for i in range(rx):
            for di, dj in ((1, 0), (0, 1)):
                ni, nj = i + di, j + dj
                if ni >= rx or nj >= ry:
                    continue
                a, b = room_index(i, j), room_index(ni, nj)
                if sealed_idx is not None and sealed_idx in (a, b):
                    continue
                if rng.random() < params.extra_door_prob:
                    carve_door((i, j), (ni, nj))

    # spawn in a non-sealed room
    open_rooms = [k for k in range(rx * ry) if k != sealed_idx]
    spawn_room = rooms[open_rooms[rng.randrange(len(open_rooms))]]
    spawn = spawn_room[rng.randrange(len(spawn_room))]
    return GridMap(cells, total_h, total_w, params.cell_size, spawn), rooms, sealed_idx
