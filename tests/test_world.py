"""Tests for the grid world, perception model and reactive navigator."""

import math
import random
import struct
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morn.bench import load_fixture
from morn.world import (
    FREE,
    WALL,
    GoalInstance,
    GridMap,
    Navigator,
    OccupiedCellError,
    PerceptionParams,
    WorldParams,
    bfs_path,
    distance_field,
    emit_evidence,
    generate_map,
    geodesic_distance,
    line_of_sight,
    parse_grid,
)

OPEN_MAP = """
#######
#S....#
#.....#
#...1.#
#######
"""

WALLED_MAP = """
#######
#S#..1#
#.#...#
#.....#
#######
"""


def oracle_bfs_meters(gmap, start, goal):
    """Independent shortest-path oracle: plain dict/deque BFS with none of
    the production code's data structures."""
    if start == goal:
        return 0.0
    seen = {start}
    q = deque([(start, 0)])
    while q:
        (r, c), d = q.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= nr < gmap.height and 0 <= nc < gmap.width):
                continue
            if gmap.cells[nr * gmap.width + nc] != FREE or (nr, nc) in seen:
                continue
            if (nr, nc) == goal:
                return (d + 1) * gmap.cell_size
            seen.add((nr, nc))
            q.append(((nr, nc), d + 1))
    return math.inf


def oracle_frontier_path(gmap, start, visited):
    """FIFO breadth-first search from `start`, expanding up, down, left,
    right, to the first discovered free cell with no coverage mark; the
    path excludes `start`, None when no such cell is reachable."""
    parent = {start: None}
    q = deque([start])
    while q:
        r, c = cell = q.popleft()
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nxt in parent or not gmap.is_free(nxt):
                continue
            parent[nxt] = cell
            if not visited[nxt[0] * gmap.width + nxt[1]]:
                path = []
                while nxt != start:
                    path.append(nxt)
                    nxt = parent[nxt]
                return path[::-1]
            q.append(nxt)
    return None


def random_map(rng, h=14, w=14, wall_p=0.3):
    cells = [WALL] * (h * w)
    for r in range(1, h - 1):
        for c in range(1, w - 1):
            if rng.random() > wall_p:
                cells[r * w + c] = FREE
    free = [(r, c) for r in range(h) for c in range(w) if cells[r * w + c] == FREE]
    if not free:
        cells[1 * w + 1] = FREE
        free = [(1, 1)]
    return GridMap(cells=cells, height=h, width=w, cell_size=0.5, spawn=free[0]), free


class TestParseGrid:
    def test_round_trip(self):
        gmap, goals = parse_grid(OPEN_MAP, cell_size=0.5)
        assert (gmap.height, gmap.width) == (5, 7)
        assert gmap.spawn == (1, 1)
        assert goals == {1: (3, 4)}
        assert gmap.is_free((1, 1)) and not gmap.is_free((0, 0))

    def test_missing_spawn_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("###\n#1#\n###")

    def test_second_spawn_rejected(self):
        # the last 'S' used to win without a word
        with pytest.raises(ValueError, match=r"second spawn 'S' at \(1, 5\); "
                                             r"the first is at \(1, 1\)"):
            parse_grid("#######\n#S...S#\n#..1..#\n#######")

    def test_repeated_goal_digit_rejected(self):
        with pytest.raises(ValueError, match=r"goal 1 appears twice, at \(1, 3\) "
                                             r"and \(2, 3\)"):
            parse_grid("#######\n#S.1..#\n#..1..#\n#######")

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("###\n#S?\n###")

    def test_free_border_cell_rejected(self):
        with pytest.raises(ValueError, match=r"border cell \(1, 4\) is free"):
            parse_grid("#####\n#S...\n#####")

    def test_cells_must_fill_the_map(self):
        with pytest.raises(ValueError, match="14 cells do not fill a 3 x 5 map"):
            GridMap(cells=[WALL] * 14, height=3, width=5, cell_size=0.5, spawn=(1, 1))

    def test_fixtures_parse(self):
        for name in ("trivial", "open", "two_room", "sealed", "maze"):
            gmap, goals = parse_grid(load_fixture(name))
            assert goals, name
            assert gmap.is_free(gmap.spawn)


class TestGeodesic:
    def test_adjacent_cells(self):
        gmap, _ = parse_grid(OPEN_MAP, cell_size=0.25)
        assert geodesic_distance(gmap, (1, 1), (1, 2)) == pytest.approx(0.25)

    def test_open_corridor(self):
        corridor = "#" * 12 + "\n#S" + "." * 9 + "#\n" + "#" * 12
        gmap, _ = parse_grid(corridor, cell_size=0.25)
        assert geodesic_distance(gmap, (1, 1), (1, 10)) == pytest.approx(9 * 0.25)

    def test_wall_forces_detour(self):
        gmap, goals = parse_grid(WALLED_MAP)
        direct = abs(1 - 1) + abs(5 - 1)
        assert geodesic_distance(gmap, (1, 1), goals[1]) > direct * gmap.cell_size

    def test_occupied_cell_rejected(self):
        gmap, _ = parse_grid(OPEN_MAP)
        with pytest.raises(OccupiedCellError):
            distance_field(gmap, (0, 0))
        with pytest.raises(OccupiedCellError):
            geodesic_distance(gmap, (0, 0), (1, 1))

    def test_matches_oracle_on_random_maps(self):
        rng = random.Random(42)
        for _ in range(30):
            gmap, free = random_map(rng)
            goal = free[rng.randrange(len(free))]
            field = distance_field(gmap, goal)
            for _ in range(10):
                start = free[rng.randrange(len(free))]
                assert field[start] == oracle_bfs_meters(gmap, start, goal)

    def test_field_holds_a_python_float_for_every_cell(self):
        # keyed by every (row, col) in row-major order; hop count x cell
        # size where a path leads to the target, inf on a wall and on a
        # free cell with no path
        rng = random.Random(8)
        maps = [random_map(rng, wall_p=0.35)[0] for _ in range(15)]
        maps += [parse_grid(load_fixture(name), cell_size=0.3)[0]
                 for name in ("two_room", "sealed", "maze")]
        disconnected = 0
        for gmap in maps:
            field = distance_field(gmap, gmap.spawn)
            assert list(field) == [(r, c) for r in range(gmap.height)
                                   for c in range(gmap.width)]
            for (r, c), d in field.items():
                assert type(d) is float
                if gmap.cells[r * gmap.width + c] == WALL:
                    assert d == math.inf
                    continue
                assert d == oracle_bfs_meters(gmap, (r, c), gmap.spawn)
                disconnected += d == math.inf
        assert disconnected > 0

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(5)
        gmap, free = random_map(rng, wall_p=0.2)
        sample = [free[rng.randrange(len(free))] for _ in range(6)]
        for a in sample:
            for b in sample:
                dab = geodesic_distance(gmap, a, b)
                assert dab == geodesic_distance(gmap, b, a)
                for c in sample:
                    dac = geodesic_distance(gmap, a, c)
                    dcb = geodesic_distance(gmap, c, b)
                    if math.isfinite(dac) and math.isfinite(dcb):
                        assert dab <= dac + dcb + 1e-9

    def test_bfs_path_tie_break_is_up_down_left_right(self):
        gmap, goals = parse_grid(OPEN_MAP)
        assert bfs_path(gmap, gmap.spawn, goals[1]) == [
            (2, 1), (3, 1), (3, 2), (3, 3), (3, 4)]

    def test_bfs_path_matches_fifo_oracle(self):
        # the path to one target is the frontier oracle's path when only
        # the target lacks a mark, ties included
        rng = random.Random(12)
        for wall_p in (0.0, 0.2, 0.35):
            gmap, free = random_map(rng, wall_p=wall_p)
            for _ in range(40):
                a = free[rng.randrange(len(free))]
                b = free[rng.randrange(len(free))]
                marks = [1] * len(gmap.cells)
                marks[b[0] * gmap.width + b[1]] = 0
                expected = [] if a == b else oracle_frontier_path(gmap, a, marks)
                assert bfs_path(gmap, a, b) == expected

    def test_bfs_path_is_shortest_and_connected(self):
        rng = random.Random(9)
        gmap, free = random_map(rng, wall_p=0.25)
        for _ in range(20):
            a = free[rng.randrange(len(free))]
            b = free[rng.randrange(len(free))]
            path = bfs_path(gmap, a, b)
            expected = oracle_bfs_meters(gmap, a, b)
            if path is None:
                assert math.isinf(expected)
                continue
            assert len(path) * gmap.cell_size == expected
            prev = a
            for cell in path:
                assert gmap.is_free(cell)
                assert abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) == 1
                prev = cell


class TestLineOfSight:
    def test_open_row(self):
        gmap, _ = parse_grid(OPEN_MAP)
        assert line_of_sight(gmap, (1, 1), (1, 5))

    def test_wall_blocks(self):
        gmap, goals = parse_grid(WALLED_MAP)
        assert not line_of_sight(gmap, (1, 1), goals[1])

    def test_self_sight(self):
        gmap, _ = parse_grid(OPEN_MAP)
        assert line_of_sight(gmap, (2, 2), (2, 2))


class TestEmitEvidence:
    def test_absent_goal_pure_baseline(self):
        gmap, goals = parse_grid(OPEN_MAP)
        goal = GoalInstance(1, "mug", goals[1], present=False)
        params = PerceptionParams(noise_std=0.0, false_positive_rate=0.0)
        rng = random.Random(0)
        d = geodesic_distance(gmap, (1, 1), goals[1])
        for _ in range(20):
            score, detected = emit_evidence(goal, (1, 1), gmap, params, rng, d)
            assert score == params.base_noise_mean
            assert not detected

    def test_present_goal_at_zero_distance(self):
        gmap, goals = parse_grid(OPEN_MAP)
        goal = GoalInstance(1, "mug", goals[1], detectability=1.0)
        params = PerceptionParams(noise_std=0.0, false_positive_rate=0.0)
        score, detected = emit_evidence(goal, goals[1], gmap, params, random.Random(0), 0.0)
        assert detected
        expected = min(params.base_noise_mean + params.signal_amplitude, 1.0)
        assert score == pytest.approx(expected, abs=1e-9)

    def test_scores_always_in_unit_interval(self):
        gmap, goals = parse_grid(OPEN_MAP)
        goal = GoalInstance(1, "mug", goals[1])
        params = PerceptionParams()
        rng = random.Random(3)
        d = geodesic_distance(gmap, (2, 2), goals[1])
        for _ in range(500):
            score, _ = emit_evidence(goal, (2, 2), gmap, params, rng, d)
            assert 0.0 <= score <= 1.0

    def test_out_of_range_never_detects(self):
        corridor = "#" * 30 + "\n#S" + "." * 26 + "1" + "#" * 0 + "\n" + "#" * 30
        gmap, goals = parse_grid(corridor, cell_size=0.5)
        goal = GoalInstance(1, "mug", goals[1], detectability=1.0)
        params = PerceptionParams(noise_std=0.0, false_positive_rate=0.0)
        d = geodesic_distance(gmap, (1, 1), goals[1])
        score, detected = emit_evidence(goal, (1, 1), gmap, params, random.Random(0), d)
        assert not detected and score == params.base_noise_mean

    def test_deterministic_given_seed(self):
        gmap, goals = parse_grid(OPEN_MAP)
        goal = GoalInstance(1, "mug", goals[1])
        params = PerceptionParams()
        d = geodesic_distance(gmap, (2, 2), goals[1])
        a = [emit_evidence(goal, (2, 2), gmap, params, random.Random(8), d)
             for _ in range(1)]
        b = [emit_evidence(goal, (2, 2), gmap, params, random.Random(8), d)
             for _ in range(1)]
        assert a == b

    def test_pose_must_be_free(self):
        gmap, goals = parse_grid(OPEN_MAP)
        goal = GoalInstance(1, "mug", goals[1])
        with pytest.raises(OccupiedCellError):
            emit_evidence(goal, (0, 0), gmap, PerceptionParams(), random.Random(0), math.inf)

    def test_unreachable_goal_draws_like_absent_goal(self):
        # inf distance: no detectability draw, so the noise and
        # false-positive stream is exactly that of an absent goal
        gmap, goals = parse_grid(OPEN_MAP)
        present = GoalInstance(1, "mug", goals[1], detectability=1.0)
        absent = GoalInstance(1, "mug", goals[1], present=False)
        params = PerceptionParams(false_positive_rate=0.3)
        ra, rb = random.Random(4), random.Random(4)
        for _ in range(50):
            assert emit_evidence(present, (1, 1), gmap, params, ra, math.inf) == \
                emit_evidence(absent, (1, 1), gmap, params, rb, math.inf)


class TestEmissionClamp:
    SPECIAL = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, 1.5, 1e-300)

    @staticmethod
    def emitted(level):
        # absent goal, no noise, no spikes: the raw score is level + 0.0
        gmap, goals = parse_grid(OPEN_MAP)
        goal = GoalInstance(1, "mug", goals[1], present=False)
        params = PerceptionParams(base_noise_mean=level, noise_std=0.0,
                                  false_positive_rate=0.0)
        return emit_evidence(goal, gmap.spawn, gmap, params, random.Random(0), 1.0)[0]

    @settings(max_examples=300)
    @given(st.one_of(st.floats(), st.sampled_from(SPECIAL)))
    def test_equals_max_of_min(self, level):
        raw = level + 0.0
        expected = max(0.0, min(raw, 1.0))
        assert struct.pack("<d", self.emitted(level)) == struct.pack("<d", expected)


class TestNavigator:
    def test_coverage_grows_until_complete(self):
        gmap, _ = parse_grid(load_fixture("open"))
        nav = Navigator(gmap, PerceptionParams())
        last = nav.coverage_fraction()
        for _ in range(400):
            action = nav.step()
            cov = nav.coverage_fraction()
            assert cov >= last
            last = cov
            if cov == 1.0:
                break
        assert last == 1.0
        assert nav.step() == "stay"  # exhausted coverage idles in place

    def test_detection_flips_to_approach_and_closes_distance(self):
        gmap, goals = parse_grid(load_fixture("two_room"))
        goal = GoalInstance(1, "mug", goals[1], detectability=1.0)
        params = PerceptionParams(noise_std=0.0, false_positive_rate=0.0)
        nav = Navigator(gmap, params)
        rng = random.Random(1)
        field = distance_field(gmap, goal.position)
        approached = False
        for _ in range(400):
            nav.step()
            d = field[nav.pose]
            score, detected = emit_evidence(goal, nav.pose, gmap, params, rng,
                                            distance=float(d))
            nav.observe(score, detected, goal, rng)
            if nav.believed_target is not None:
                approached = True
                assert nav.believed_target == goal.position
            if nav.pose == goal.position or d <= gmap.cell_size:
                break
        assert approached
        assert field[nav.pose] <= gmap.cell_size

    def test_stays_only_at_target_or_with_coverage_exhausted(self):
        # the invariant that lets a stay leave coverage unmarked: the
        # sensing square around the pose is already marked
        seen = set()
        for name, present in (("two_room", True), ("trivial", False)):
            gmap, goals = parse_grid(load_fixture(name))
            goal = GoalInstance(1, "mug", goals[1], present=present)
            params = PerceptionParams()
            nav = Navigator(gmap, params)
            rng = random.Random(11)
            field = distance_field(gmap, goal.position)
            for _ in range(300):
                before = bytes(nav.visited)
                if nav.step() == "stay":
                    assert bytes(nav.visited) == before
                    if nav.pose == nav.believed_target:
                        seen.add((name, "target"))
                    else:
                        reachable = [math.isfinite(d) for d in distance_field(gmap, nav.pose).values()]
                        assert all(nav.visited[i] for i, ok in enumerate(reachable) if ok)
                        seen.add((name, "exhausted"))
                score, detected = emit_evidence(goal, nav.pose, gmap, params, rng,
                                                float(field[nav.pose]))
                nav.observe(score, detected, goal, rng)
        assert {("two_room", "target"), ("trivial", "exhausted")} <= seen

    def test_navigator_is_blind_to_executive(self):
        # the same seed and observations must replay identical poses
        gmap, goals = parse_grid(load_fixture("two_room"))
        goal = GoalInstance(1, "mug", goals[1])
        params = PerceptionParams()
        field = distance_field(gmap, goal.position)

        def poses(n):
            nav = Navigator(gmap, params)
            rng = random.Random(77)
            out = []
            for _ in range(n):
                nav.step()
                score, detected = emit_evidence(goal, nav.pose, gmap, params, rng,
                                                float(field[nav.pose]))
                nav.observe(score, detected, goal, rng)
                out.append(nav.pose)
            return out

        assert poses(120) == poses(120)

    def test_first_frontier_plan_tie_break(self):
        # two unvisited cells lie 3 steps from the spawn (2, 3): (5, 3)
        # straight down and (2, 6) to the right; down is expanded first
        gmap, _ = parse_grid(load_fixture("two_room"))
        nav = Navigator(gmap, PerceptionParams())
        assert nav._plan_to_nearest_unvisited() == [(3, 3), (4, 3), (5, 3)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 16), st.integers(3, 16),
           st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]), st.booleans())
    def test_frontier_plan_matches_fifo_oracle(self, seed, h, w, covered, open_map):
        # random maps (open ones are all ties) with random coverage, from
        # every free pose: the plan is the oracle's path, ties included
        rng = random.Random(seed)
        gmap, free = random_map(rng, h, w, wall_p=0.0 if open_map else 0.3)
        nav = Navigator(gmap, PerceptionParams())
        for pose in free:
            nav.pose = pose
            nav.visited[:] = bytes(rng.random() < covered for _ in nav.visited)
            assert nav._plan_to_nearest_unvisited() == oracle_frontier_path(
                gmap, pose, nav.visited)

    @pytest.mark.parametrize("seed", range(6))
    def test_frontier_plan_under_walked_coverage(self, seed):
        # coverage as the navigator makes it: the union of the clipped
        # sensing squares along a random walk. Plans from the walk's poses
        # as the coverage grows meet their own earlier searches again, and
        # plans from every free cell meet squares that are partly covered
        # or clipped by the border (starts on row or column 1)
        rng = random.Random(seed)
        if seed % 2:
            gmap, rooms, _ = generate_map(rng, WorldParams(room_min=4, room_max=7))
            free = [cell for room in rooms for cell in room]
        else:
            gmap, free = random_map(rng, 16, 18, wall_p=0.0 if seed % 4 == 0 else 0.25)
        h, w = gmap.height, gmap.width
        s = Navigator.SENSE_RADIUS
        visited = bytearray(h * w)
        nav = Navigator(gmap, PerceptionParams())
        pose = free[rng.randrange(len(free))]
        for t in range(80):
            r, c = pose
            for row in range(max(0, r - s), min(h, r + s + 1)):
                for col in range(max(0, c - s), min(w, c + s + 1)):
                    visited[row * w + col] = 1
            nav.visited[:] = visited
            starts = [pose] if t % 20 else free
            for start in starts:
                nav.pose = start
                assert nav._plan_to_nearest_unvisited() == oracle_frontier_path(
                    gmap, start, visited)
            moves = [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                     if gmap.is_free((r + dr, c + dc))]
            pose = moves[rng.randrange(len(moves))] if moves else pose
        assert any(1 in (r, c) for r, c in free)

    @pytest.mark.parametrize("seed", range(8))
    def test_plans_on_one_map_under_changing_coverage(self, seed):
        # one map, so every search after the first from a start meets the
        # discovery order an earlier search left. Random coverage; a subset
        # of it, which uncovers cells the first search passed before it
        # stopped; a superset of that, which covers all of them; complete
        # coverage (no plan); random coverage again; then paths to single
        # targets from the same starts
        rng = random.Random(seed)
        gmap, free = random_map(rng, 14, 15, wall_p=0.0 if seed % 2 else 0.25)
        n = len(gmap.cells)
        nav = Navigator(gmap, PerceptionParams())
        starts = [free[rng.randrange(len(free))] for _ in range(10)]
        sparse = bytes(rng.random() < 0.5 for _ in range(n))
        thinner = bytes(a and rng.random() < 0.8 for a in sparse)
        denser = bytes(a or rng.random() < 0.9 for a in thinner)
        again = bytes(rng.random() < 0.8 for _ in range(n))
        for coverage in (sparse, thinner, denser, b"\x01" * n, again):
            for start in starts:
                nav.pose = start
                nav.visited[:] = coverage
                assert nav._plan_to_nearest_unvisited() == oracle_frontier_path(
                    gmap, start, coverage)
        for start in starts:
            for _ in range(5):
                target = free[rng.randrange(len(free))]
                marks = bytearray(b"\x01") * n
                marks[target[0] * gmap.width + target[1]] = 0
                expected = [] if start == target else oracle_frontier_path(gmap, start, marks)
                assert bfs_path(gmap, start, target) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 16), st.integers(3, 16),
           st.lists(st.sampled_from(["step", "step", "step", "observe", "copy", "begin"]),
                    max_size=150))
    def test_visited_is_the_union_of_sensing_squares(self, seed, h, w, walk):
        # oracle: the full clipped square around every pose since the last
        # context start, whatever mix of exploring, approaching a phantom
        # target, copying and resetting led there
        rng = random.Random(seed)
        gmap, _ = random_map(rng, h, w, wall_p=0.25)
        s = Navigator.SENSE_RADIUS

        def sensed(poses):
            return {(r, c) for pr, pc in poses
                    for r in range(max(0, pr - s), min(h, pr + s + 1))
                    for c in range(max(0, pc - s), min(w, pc + s + 1))}

        goal = GoalInstance(1, "mug", gmap.spawn, present=False)
        walks = [[Navigator(gmap, PerceptionParams()), [gmap.spawn]]]  # navigator, poses
        for op in walk:
            current = walks[-1]
            nav = current[0]
            if op == "step":
                nav.step()
                current[1].append(nav.pose)
            elif op == "observe":
                # two high readings in a row lock a phantom target near the pose
                nav.observe(1.0 if rng.random() < 0.7 else 0.0, False, goal, rng)
            elif op == "copy":
                walks.append([nav.copy(), list(current[1])])
            else:
                nav.begin_goal_context()
                current[1] = [nav.pose]
        for nav, poses in walks:
            assert len(nav.visited) == h * w
            marked = {divmod(i, w) for i, v in enumerate(nav.visited) if v}
            assert set(nav.visited) <= {0, 1}
            assert marked == sensed(poses)

    def test_goal_context_reset(self):
        gmap, _ = parse_grid(load_fixture("open"))
        nav = Navigator(gmap, PerceptionParams())
        for _ in range(50):
            nav.step()
        covered = nav.coverage_fraction()
        nav.begin_goal_context()
        assert nav.coverage_fraction() < covered or covered == nav.coverage_fraction() == 1.0
        assert nav.believed_target is None


class TestGenerateMap:
    def test_connectivity_and_rooms(self):
        rng = random.Random(13)
        params = WorldParams()
        gmap, rooms, sealed = generate_map(rng, params, sealed_room=False)
        assert sealed is None
        assert len(rooms) == params.rooms_x * params.rooms_y
        field = distance_field(gmap, gmap.spawn)
        for room in rooms:
            for cell in room:
                assert math.isfinite(field[cell])

    def test_sealed_room_is_unreachable(self):
        rng = random.Random(13)
        params = WorldParams()
        gmap, rooms, sealed = generate_map(rng, params, sealed_room=True)
        assert sealed is not None
        field = distance_field(gmap, gmap.spawn)
        for cell in rooms[sealed]:
            assert math.isinf(field[cell])
        open_cells = [c for i, room in enumerate(rooms) if i != sealed for c in room]
        for cell in open_cells:
            assert math.isfinite(field[cell])

    @pytest.mark.parametrize("sealed_room", [False, True])
    def test_every_open_room_cell_is_reachable_from_spawn(self, sealed_room):
        # the invariant goal placement relies on: any cell of a non-sealed
        # room can hold a reachable goal, so placement never checks
        rng = random.Random(2024 + sealed_room)
        for _ in range(300):
            params = WorldParams(rooms_x=rng.randint(1, 4), rooms_y=rng.randint(2, 4),
                                 room_min=rng.randint(1, 6), room_max=rng.randint(6, 10),
                                 extra_door_prob=rng.choice([0.0, 0.25, 1.0]))
            params.validate()
            gmap, rooms, sealed = generate_map(rng, params, sealed_room=sealed_room)
            assert (sealed is not None) == sealed_room
            field = distance_field(gmap, gmap.spawn)
            for i, room in enumerate(rooms):
                if i != sealed:
                    assert all(math.isfinite(field[cell]) for cell in room)

    def test_border_is_walled(self):
        gmap, _, _ = generate_map(random.Random(4), WorldParams())
        w = gmap.width
        rows = [gmap.cells[r * w: (r + 1) * w] for r in range(gmap.height)]
        assert all(x == WALL for x in rows[0])
        assert all(x == WALL for x in rows[-1])
        assert all(row[0] == WALL for row in rows)
        assert all(row[-1] == WALL for row in rows)

    def test_deterministic_given_seed(self):
        a, _, _ = generate_map(random.Random(21), WorldParams())
        b, _, _ = generate_map(random.Random(21), WorldParams())
        assert a.cells == b.cells and a.spawn == b.spawn
