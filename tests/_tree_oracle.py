"""Index arithmetic of the binary-tree class, as root-to-leaf bit paths.

The package computes tree indices in heap order (``environments.TreeMeta``);
the tests check it against this path-based form.  A path is a tuple of bits
from the root, 0 going left and 1 right; leaf x's path is the binary
expansion of x, most significant bit first.
"""


def internal_arm_of(meta, path) -> int:
    """Arm of the internal node a bit path of length 0 .. depth-1 reaches."""
    bits = tuple(path)
    if not 0 <= len(bits) < meta.depth:
        raise IndexError("path length must lie in [0, depth)")
    position = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("path entries must be bits")
        position = 2 * position + b
    return (1 << len(bits)) - 1 + position


def path_to_leaf(meta, leaf: int) -> tuple:
    if not 0 <= leaf < meta.leaf_count:
        raise IndexError("leaf index out of range")
    return tuple((leaf >> (meta.depth - 1 - lvl)) & 1 for lvl in range(meta.depth))


def bucket_arms_of(meta, leaf: int) -> range:
    if not 0 <= leaf < meta.leaf_count:
        raise IndexError("leaf index out of range")
    start = meta.n_internal + leaf * meta.bucket_size
    return range(start, start + meta.bucket_size)


def function_index(meta, leaf: int, slot: int) -> int:
    if not 0 <= slot < meta.bucket_size:
        raise IndexError("slot index out of range")
    return leaf * meta.bucket_size + slot


def leaf_of_function(meta, function: int) -> int:
    if not 0 <= function < meta.n_functions:
        raise IndexError("function index out of range")
    return function // meta.bucket_size


def optimal_arm_of(meta, function: int) -> int:
    """The one optimal arm of a function: its leaf's bucket arm at its slot."""
    return bucket_arms_of(meta, leaf_of_function(meta, function))[function % meta.bucket_size]
