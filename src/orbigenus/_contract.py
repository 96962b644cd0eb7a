"""The contraction schedule of the twisted-sector double sum.

``_engine.double_sum`` sums, over (left, right) pairs of representative
words of length d, a product of one transform per coordinate.  Its schedule
contracts that sum one coordinate at a time, merging prefixes that have the
same completions, and depends only on the words, the side modes, the moduli
and whether the ring pairs complex conjugates; ``plan`` builds it once per
such input.
"""

from __future__ import annotations

from functools import lru_cache

Vec = tuple[int, ...]

# How a product reaches the accumulator of a state (see ``plan``): as it is,
# as its complex conjugate, or as itself plus its conjugate.
PLAIN, CONJ, BOTH = 0, 1, 2


def _neg(vec: Vec, moduli: tuple[int, ...]) -> Vec:
    return tuple((m - x) % m for x, m in zip(vec, moduli))


def _layers(words: tuple[Vec, ...], d: int) -> tuple[list[dict], list[list]]:
    """Minimal layered automaton of a set of words of length d.

    A state at level k is the set of completions of a length-k prefix, so
    prefixes with the same completions share it.  Returns ``state_of``, per
    level a map from each prefix to its state id (level d has the one
    accepting state 0), and ``edges``, per level and state the sorted
    (letter, next state) pairs.
    """
    state_of: list[dict] = [{} for _ in range(d)] + [dict.fromkeys(words, 0)]
    edges: list[list] = [[] for _ in range(d)] + [[()]]
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


def _mirror(state_of: list[dict], edges: list[list], moduli) -> list[list[int]]:
    """Per level, the state of the negated prefixes of each state; the words
    must be closed under negation."""
    out = []
    for level, states in zip(state_of, edges):
        image = [0] * len(states)
        for prefix, state in level.items():
            image[state] = level[_neg(prefix, moduli)]
        out.append(image)
    return out


@lru_cache(maxsize=32)
def plan(reps_l, reps_r, mode_l: str, mode_r: str, moduli: tuple[int, ...], mirrors: bool):
    """The schedule over the pairs of ``reps_l`` x ``reps_r``: (transform
    keys, steps, number of states, final state).

    Transform key i is (k, xl, xr), the transform of coordinate k at letters
    (xl, xr).  A state is a pair of left and right automaton states at one
    level.  The conjugation sigma negates the letters of a "T" left side and
    of a "D" right side when the ring mirrors, and is the identity otherwise;
    values live on canonical states s <= sigma(s).

    Each step is a canonical state with its edges (transform index, target,
    flag): the product of the state's value with the transform reaches the
    target's accumulator as ``flag`` says.  A state fixed by sigma expands
    one edge of each sigma-pair, the other being its conjugate; a product
    whose target is not canonical arrives conjugated at sigma(target).
    States are expanded depth first, each once all its inputs have arrived;
    state 0 is the root, whose value is 1.
    """
    d = len(moduli)
    auto_l, auto_r = _layers(reps_l, d), _layers(reps_r, d)
    flip_l, flip_r = mirrors and mode_l == "T", mirrors and mode_r == "D"
    sig_l = _mirror(*auto_l, moduli) if flip_l else [range(len(s)) for s in auto_l[1]]
    sig_r = _mirror(*auto_r, moduli) if flip_r else [range(len(s)) for s in auto_r[1]]

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
        next_l, next_r = sig_l[k + 1], sig_r[k + 1]
        for sl, succ_l in enumerate(edges_l):
            for sr, succ_r in enumerate(edges_r):
                state = (k, sl, sr)
                image = (k, sig_l[k][sl], sig_r[k][sr])
                if image < state:
                    continue  # carried, conjugated, by its canonical image
                fixed = image == state
                expanded = out_edges[state_id(state)]
                for xl, tl in succ_l:
                    for xr, tr in succ_r:
                        mirrored = True
                        if fixed:
                            label = ((m - xl) % m if flip_l else xl, (m - xr) % m if flip_r else xr)
                            if label < (xl, xr):
                                continue  # the conjugate of an expanded edge
                            mirrored = label != (xl, xr)
                        target, partner = (k + 1, tl, tr), (k + 1, next_l[tl], next_r[tr])
                        if not mirrored:
                            flag = PLAIN
                        elif target == partner:
                            flag = BOTH
                        elif target < partner:
                            flag = PLAIN
                        else:
                            flag, target = CONJ, partner
                        tid = state_id(target)
                        inputs[tid] += 1
                        expanded.append((keys.setdefault((k, xl, xr), len(keys)), tid, flag))

    final = ids[(d, 0, 0)]
    steps = []
    stack = [0] if d else []  # with no variables the root is final
    while stack:
        sid = stack.pop()
        steps.append((sid, tuple(out_edges[sid])))
        for _, target, _ in out_edges[sid]:
            inputs[target] -= 1
            if not inputs[target] and target != final:
                stack.append(target)
    assert len(steps) == len(out_edges) - 1, "a state of the contraction was never reached"
    return tuple(keys), tuple(steps), len(out_edges), final
