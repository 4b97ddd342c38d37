"""Output and contract checks for the benchmark, written apart from the codecs.

Each reachability test decides in O(n) whether a received word y lies in the
forward image of a source word x under one error model.  They take plain
symbol tuples and use nothing from `syncodec`, so a codec bug cannot hide in
a shared helper.  `perfbench/test_perfbench.py` cross-checks them against the
exhaustive `syncodec.words.error_ball`.
"""

from __future__ import annotations


def _first_mismatch(a: tuple, b: tuple) -> int:
    """Index of the first position where a and b differ, or min(len) if none."""
    i = 0
    limit = min(len(a), len(b))
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def within_one_edit(x: tuple, y: tuple) -> bool:
    """Levenshtein distance(x, y) <= 1: one deletion, insertion or substitution."""
    if len(x) == len(y):
        return sum(a != b for a, b in zip(x, y)) <= 1
    if abs(len(x) - len(y)) != 1:
        return False
    longer, shorter = (x, y) if len(x) > len(y) else (y, x)
    i = _first_mismatch(longer, shorter)
    return longer[i + 1:] == shorter[i:]


def within_del_sub(x: tuple, y: tuple) -> bool:
    """y arises from x by at most one deletion plus at most one substitution."""
    n = len(x)
    if len(y) == n:
        return sum(a != b for a, b in zip(x, y)) <= 1
    if len(y) != n - 1:
        return False
    # head[i]: mismatches of x[:i] against y[:i]
    # tail[i]: mismatches of x[i+1:] against y[i:]   (x[i] is the deleted symbol)
    head = [0] * (n + 1)
    for i in range(n - 1):
        head[i + 1] = head[i] + (x[i] != y[i])
    tail = [0] * (n + 1)
    for i in range(n - 2, -1, -1):
        tail[i] = tail[i + 1] + (x[i + 1] != y[i])
    return any(head[i] + tail[i] <= 1 for i in range(n))


def within_del_or_trans(x: tuple, y: tuple) -> bool:
    """y equals x, or arises from it by one deletion or one adjacent swap."""
    n = len(x)
    i = _first_mismatch(x, y)
    if len(y) == n - 1:
        return x[i + 1:] == y[i:]
    if len(y) != n:
        return False
    if i == n:
        return True
    return (i + 1 < n and x[i] != x[i + 1] and y[i] == x[i + 1]
            and y[i + 1] == x[i] and x[i + 2:] == y[i + 2:])


def contract_verdict(answer, exc: BaseException | None, reaches,
                     decode_failure: type) -> tuple[bool, str]:
    """Judge one beyond-model decode against the decoder contract.

    `answer` is what the decode returned and `exc` what it raised instead.  A
    decode passes if it raised `decode_failure` (or a subclass), or if
    `reaches(answer)` confirms that the answer's encoding reaches y within the
    model; any other exception fails.  Returns (passed, label), where the label
    names the exception type or says whether the answer was reachable.
    """
    if exc is not None:
        if isinstance(exc, decode_failure):
            return True, "DecodeFailure"
        return False, type(exc).__name__
    if reaches(answer):
        return True, "reachable"
    return False, "unreachable-answer"
