"""The contraction schedule of the twisted-sector double sum.

``_engine.double_sum`` sums, over (left, right) pairs of representative
words of length d, a product of one transform per coordinate, one sum per
class of left words.  Its schedule contracts that sum one coordinate at a
time, merging prefixes that have the same completions, and depends only on
the words, the side modes, the moduli and the ring's Galois units.  Each
sum is planned once; ``plan`` keeps the 32 most recently used schedules, so
one is built again only once 32 others have been planned since its last use.
"""

from __future__ import annotations

from functools import lru_cache

Vec = tuple[int, ...]


def _layers(classes: tuple[tuple[Vec, ...], ...], d: int) -> tuple[list[dict], list[list]]:
    """Minimal layered automaton of disjoint classes of words of length d.

    A state at level k is the set of (completion, class) pairs of a length-k
    prefix, so prefixes with the same completions into the same classes
    share it.  Returns ``state_of``, per level a map from each prefix to its
    state id (level d has one accepting state per class, state c for class
    c), and ``edges``, per level and state the sorted (letter, next state)
    pairs.
    """
    accept = {word: c for c, words in enumerate(classes) for word in words}
    state_of: list[dict] = [{} for _ in range(d)] + [accept]
    edges: list[list] = [[] for _ in range(d)] + [[()] * len(classes)]
    for k in range(d - 1, -1, -1):
        completions: dict[Vec, set] = {}
        for word, state in state_of[k + 1].items():
            completions.setdefault(word[:k], set()).add((word[k], state))
        ids: dict[tuple, int] = {}
        for prefix, out in completions.items():
            key = tuple(sorted(out))
            state = ids.get(key)
            if state is None:
                state = ids[key] = len(edges[k])
                edges[k].append(key)
            state_of[k][prefix] = state
    return state_of, edges


def _images(state_of: list[dict], edges: list[list], moduli, unit: int) -> list[list[int]]:
    """Per level, the state of the prefixes of each state scaled by ``unit``;
    the words must be closed under that scaling."""
    if unit == 1:
        return [range(len(states)) for states in edges]
    out = []
    for level, states in zip(state_of, edges):
        image = [0] * len(states)
        for prefix, state in level.items():
            image[state] = level[tuple(unit * x % m for x, m in zip(prefix, moduli))]
        out.append(image)
    return out


@lru_cache(maxsize=32)
def plan(classes_l, reps_r, mode_l: str, mode_r: str, moduli: tuple[int, ...],
         units: tuple[int, ...]):
    """The schedule over the pairs of each class of ``classes_l`` x
    ``reps_r``: (transform keys, steps, number of states, final states, one
    per left class).

    Transform key i is (k, xl, xr), the transform of coordinate k at letters
    (xl, xr).  A state is a pair of left and right automaton states at one
    level.  The ring's Galois automorphism sigma_u, u in ``units`` (1 first),
    maps the transform at (xl, xr) to the transform at the letters scaled by
    u on a "T" left side and on a "D" right side, so it maps the value of a
    state to the value of its scaled image.  Values live on the least state
    of each orbit; with a "D" left and a "T" right side no unit scales
    either, and every state is its own orbit.

    Each step is a kept state with its edges (transform index, target, ks):
    the product of the state's value with the transform reaches the kept
    image of its target as the sum of sigma_k(product) over the units ks.
    A state expands one edge of each orbit of its stabilizer; ks holds one
    unit for each distinct image of that edge that lands on the kept target,
    so every edge of the whole automaton is counted once.  States are
    expanded depth first, each once all its inputs have arrived; state 0 is
    the root, whose value is 1.  The left classes share every state up to
    the level where their completions part, and each must be closed under
    the scaling by the units.
    """
    d = len(moduli)
    auto_l, auto_r = _layers(classes_l, d), _layers((reps_r,), d)
    scale_l, scale_r = mode_l == "T", mode_r == "D"
    if not (scale_l or scale_r):
        units = (1,)  # every image is the state itself
    sig = [(_images(*auto_l, moduli, u if scale_l else 1),
            _images(*auto_r, moduli, u if scale_r else 1)) for u in units]

    ids: dict[tuple, int] = {(0, 0, 0): 0}
    keys: dict[tuple, int] = {}
    out_edges: list[list] = [[]]
    inputs: list[int] = [0]

    def state_id(state):
        sid = ids.get(state)
        if sid is None:
            sid = ids[state] = len(out_edges)
            out_edges.append([])
            inputs.append(0)
        return sid

    for k in range(d):
        m = moduli[k]
        edges_l, edges_r = auto_l[1][k], auto_r[1][k]

        def scaled(u, xl, xr):
            return (u * xl % m if scale_l else xl, u * xr % m if scale_r else xr)

        for sl, succ_l in enumerate(edges_l):
            for sr, succ_r in enumerate(edges_r):
                state = (k, sl, sr)
                images = [(k, img_l[k][sl], img_r[k][sr]) for img_l, img_r in sig]
                if min(images) < state:
                    continue  # carried by its least image
                stab = [u for u, image in zip(units, images) if image == state]
                expanded = out_edges[state_id(state)]
                for xl, tl in succ_l:
                    for xr, tr in succ_r:
                        if any(scaled(u, xl, xr) < (xl, xr) for u in stab):
                            continue  # the image of an expanded edge
                        targets = [(k + 1, img_l[k + 1][tl], img_r[k + 1][tr])
                                   for img_l, img_r in sig]
                        target = min(targets)
                        ks: dict[tuple, int] = {}
                        for u, image, reached in zip(units, images, targets):
                            if reached == target:
                                ks.setdefault((image, scaled(u, xl, xr)), u)
                        tid = state_id(target)
                        inputs[tid] += 1
                        key = keys.setdefault((k, xl, xr), len(keys))
                        expanded.append((key, tid, tuple(ks.values())))

    finals = tuple(ids[(d, c, 0)] for c in range(len(classes_l)))
    steps = []
    stack = [0] if d else []  # with no variables the root is final
    while stack:
        sid = stack.pop()
        steps.append((sid, tuple(out_edges[sid])))
        for _, target, _ in out_edges[sid]:
            inputs[target] -= 1
            if not inputs[target] and target not in finals:
                stack.append(target)
    assert len(steps) == len(out_edges) - len(finals), "a state of the contraction was never reached"
    return tuple(keys), tuple(steps), len(out_edges), finals


def fewest_products(candidates, reps_r, mode_r: str, moduli: tuple[int, ...],
                    units: tuple[int, ...]):
    """The first of ``candidates`` (lists of classes of left words) whose
    ``plan`` against ``reps_r`` in ``mode_r``, left side "D", forms fewest
    products: one per edge orbit out of each level k >= 1, the left edges
    (which the units fix) times the unit orbits of the right edges, each
    found at its least.  No unit scales a "T" right side, so there every
    right edge is its own orbit."""
    d = len(moduli)
    state_of, edges = _layers((reps_r,), d)
    sig = [(u, _images(state_of, edges, moduli, u)) for u in (units if mode_r == "D" else (1,))]
    orbits = [sum(all((img[k][s], u * x % moduli[k], img[k + 1][t]) >= (s, x, t) for u, img in sig)
                  for s, out in enumerate(edges[k]) for x, t in out) for k in range(d)]

    def products(classes):
        edges_l = _layers(classes, d)[1]
        return sum(sum(map(len, edges_l[k])) * orbits[k] for k in range(1, d))

    return min(candidates, key=products)
