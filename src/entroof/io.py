"""File formats for states and instrument trees.

Both formats are JSON (UTF-8). Complex numbers are two-element arrays
``[re, im]`` of JSON numbers; decimal values round-trip exactly through
the shortest repr. A state file is::

    {"kind": "pure", "dims": [2, 2], "data": [[re, im], ...]}
    {"kind": "density", "dims": [2, 2], "data": [[[re, im], ...], ...]}

and a tree file is::

    {"dims": [2, 2], "root": {"party": "A", "kraus": [matrix, ...],
                              "children": [node, ...]}}

where leaves omit (or leave empty) ``kraus`` and ``children``. Loading
validates the physical invariants and raises InvariantViolation naming the
violated invariant and its residual.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .locc import LoccNode
from .states import BipartiteDims, DensityOperator, InvariantViolation, PureState


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fail(invariant: str, message: str, residual: float = 0.0):
    raise InvariantViolation(invariant, residual, message)


def _pairs_array(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:  # non-numbers, ragged nesting
        _fail("complex-pairs", f"expected numeric [re, im] pairs: {e}")
    # the cast also parses numeric strings and booleans, while JSON numbers
    # load as int or float; it succeeded, so the leaves are arr.ndim levels down
    leaves = [data]
    for _ in range(arr.ndim):
        leaves = [x for row in leaves for x in row]
    bad = set(map(type, leaves)) - {int, float}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        _fail("complex-pairs", f"expected JSON numbers in [re, im] pairs, got {names}")
    # Python's json reads the NaN and Infinity literals, and 1e400 as inf
    if not np.all(np.isfinite(arr)):
        _fail("finite", "entries must be finite (no NaN/Inf)", np.inf)
    return arr


def pairs_to_array(data, ndim: int) -> np.ndarray:
    """Complex vector (``ndim`` 1) or matrix (2) from nested [re, im] pairs."""
    arr = _pairs_array(data)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        what = "a list of" if ndim == 1 else "rows of"
        _fail("complex-pairs", f"expected {what} [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def vector_to_pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def matrix_to_pairs(m: np.ndarray) -> list:
    return [vector_to_pairs(row) for row in np.asarray(m)]


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        _fail("file", f"no such file: {path}")
    except json.JSONDecodeError as e:
        _fail("json", f"{path} is not well-formed JSON: {e}")
    except RecursionError:
        _fail("json-depth", f"{path} nests too deeply to parse")


def _parse_dims(obj) -> BipartiteDims:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in obj)):
        _fail("dims", f"dims must be [dim_a, dim_b] integers, got {obj!r}")
    return BipartiteDims(int(obj[0]), int(obj[1]))


def load_state(path) -> PureState | DensityOperator:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        _fail("state-file", "top-level value must be an object")
    kind = doc.get("kind")
    if kind not in ("pure", "density"):
        _fail("kind", f"kind must be 'pure' or 'density', got {kind!r}")
    dims = _parse_dims(doc.get("dims"))
    if "data" not in doc:
        _fail("data", "missing 'data' field")
    if kind == "pure":
        return PureState(pairs_to_array(doc["data"], 1), dims)
    return DensityOperator(pairs_to_array(doc["data"], 2), dims)


def _cast_kraus(ops: list[tuple[str, int, object]]) -> list[np.ndarray]:
    """Complex matrices of the Kraus pair lists (node, index, data), in order.

    Operators of one (rows, columns) shape are cast together; a group the
    shared cast rejects is cast one operator at a time, so that the error
    names the first malformed operator and its node.
    """
    groups: dict[tuple, list[int]] = {}
    for j, (_, _, data) in enumerate(ops):
        try:
            key = (len(data), len(data[0]))
        except (TypeError, KeyError, IndexError):  # not a list of lists
            key = None
        groups.setdefault(key, []).append(j)
    out: list = [None] * len(ops)
    for key, members in groups.items():
        try:
            arr = _pairs_array([ops[j][2] for j in members]) if key else None
        except InvariantViolation:
            arr = None
        if arr is not None and arr.ndim == 4 and arr.shape[3] == 2:
            mats = arr[..., 0] + 1j * arr[..., 1]
            for j, m in zip(members, mats):
                out[j] = m
            continue
        for j in members:
            where, i, data = ops[j]
            try:
                out[j] = pairs_to_array(data, 2)
            except InvariantViolation as e:
                _fail(e.invariant, f"Kraus operator {i} of the node at {where}: {e}")
    return out


def _parse_tree(root) -> LoccNode:
    """The tree under a root object, read by an explicit-stack walk."""
    objs: list[tuple[dict, str]] = []   # pre-order
    ops: list[tuple[str, int, object]] = []
    stack = [(root, "root")]
    while stack:
        obj, where = stack.pop()
        if not isinstance(obj, dict):
            _fail("tree-node", f"node at {where} must be an object")
        for key in ("kraus", "children"):
            if not isinstance(obj.get(key, []), list):
                _fail("tree-node", f"'{key}' of the node at {where} must be a list")
        objs.append((obj, where))
        ops.extend((where, i, k) for i, k in enumerate(obj.get("kraus", [])))
        children = obj.get("children", [])
        stack.extend((children[i], f"{where}.{i}") for i in reversed(range(len(children))))
    kraus = _cast_kraus(ops)
    # a node's subtree follows it in pre-order, so walking backwards finds
    # each node's children finished, first child on top of the stack
    done: list[LoccNode] = []
    for obj, where in reversed(objs):
        n_ops, n_kids = len(obj.get("kraus", [])), len(obj.get("children", []))
        kids = done[len(done) - n_kids:][::-1]
        del done[len(done) - n_kids:]
        try:
            done.append(LoccNode(party=obj.get("party", "A"), children=tuple(kids),
                                 kraus=tuple(kraus[len(kraus) - n_ops:])))
        except ValueError as e:  # the party label
            _fail("party", f"node at {where}: {e}")
        del kraus[len(kraus) - n_ops:]
    return done[0]


def load_tree(path) -> tuple[LoccNode, BipartiteDims]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        _fail("tree-file", "top-level value must be an object")
    dims = _parse_dims(doc.get("dims"))
    if "root" not in doc:
        _fail("root", "missing 'root' field")
    return _parse_tree(doc["root"]), dims


def save_state(path, state: PureState | DensityOperator) -> None:
    if isinstance(state, PureState):
        doc = {"kind": "pure", "dims": list(state.dims.as_tuple()),
               "data": vector_to_pairs(state.amplitudes)}
    else:
        doc = {"kind": "density", "dims": list(state.dims.as_tuple()),
               "data": matrix_to_pairs(state.matrix)}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _node_to_obj(node: LoccNode) -> dict:
    return {
        "party": node.party,
        "kraus": [matrix_to_pairs(k) for k in node.kraus],
        "children": [_node_to_obj(c) for c in node.children],
    }


def save_tree(path, tree: LoccNode, dims: BipartiteDims) -> None:
    """Write ``tree`` as a tree file. A tree too deep to encode raises
    InvariantViolation("json-depth"), as :func:`load_tree` does on a file
    too deep to parse, and leaves no file behind."""
    try:
        text = json.dumps({"dims": list(dims.as_tuple()), "root": _node_to_obj(tree)})
    except RecursionError:
        _fail("json-depth", f"the tree nests too deeply to write to {path}")
    Path(path).write_text(text, encoding="utf-8")
