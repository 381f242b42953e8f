"""Feature files for the tests: the headerless CSV that a ``kind: files``
dataset may hold, written exactly (also the text oracle that the ``.npy``
features of generated datasets are checked against), and ``.npy`` files that
``load_dataset`` refuses."""
import io
from pathlib import Path

import numpy as np


def save_features_csv(features, path) -> None:
    """One CSV row per node, each value as ``%.17g`` (exact round trip)."""
    row = ",".join(["%.17g"] * features.shape[1]) + "\n"
    Path(path).write_text("".join(row % tuple(values) for values in features.tolist()),
                          encoding="utf-8")


def npy_bytes(array, **kwargs) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, **kwargs)
    return buffer.getvalue()


def _claiming(shape) -> bytes:
    """A float64 ``.npy`` header that claims ``shape``, then one row of 16 values."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buffer.getvalue() + np.zeros(16).tobytes()


def _npz_bytes() -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, features=np.zeros((3, 2)))
    return buffer.getvalue()


# .npy feature files of a three-node dataset that load_dataset refuses; none
# may allocate anything of the size its header claims
BAD_NPY = {
    "pickled-objects": npy_bytes(np.array([[0.5, "x"]] * 3, dtype=object), allow_pickle=True),
    "one-dimensional": npy_bytes(np.zeros(3)),
    "int64": npy_bytes(np.zeros((3, 2), dtype=np.int64)),
    "float32": npy_bytes(np.zeros((3, 2), dtype=np.float32)),
    "big-endian": npy_bytes(np.zeros((3, 2), dtype=">f8")),
    "truncated": npy_bytes(np.zeros((3, 2)))[:-5],
    "header-only": npy_bytes(np.zeros((3, 2)))[:60],
    "empty": b"",
    "trailing-bytes": npy_bytes(np.zeros((3, 2))) + bytes(8),
    "claims-2**40-rows": _claiming((2**40, 16)),
    "csv-text": b"0.5\n1.5\n2.5\n",
    "npz-archive": _npz_bytes(),
}
