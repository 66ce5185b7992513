"""Controller decisions pinned on all six studies at short horizons.

Each study's action sequence (the sha256 of its steps' actions, one line
per step, joined by ';', as bench/child.py hashes it) and its endpoint
space (N or Nx/Ny, beta, x_left) must stay exactly as recorded.  A change
meant to leave the arithmetic bit for bit unchanged that flips a single
controller decision fails here, not only in the benchmark's fingerprint.
"""

import contextlib
import hashlib
import io

import pytest

from adaptspec import experiments

PINS = [
    (1, 1.0, "d3ade467c0d4a523a6933f1299fa9e078e9faa08d44c30ffed7ae6f18d2e5b7c",
     (16, None, None, None, None)),
    (2, 1.0, "f70fe8f98c5b8c3608a7e61760810a4f17ceae38328e025bdac01fc872582925",
     (None, 40, 38, None, None)),
    (3, 1.0, "2afb00109c7f60e5d3956b2aacb608892342be4cf93b20a47459cbffa39ffafb",
     (56, None, None, 2.161440350650546, 0.0)),
    (4, 1.0, "fb998d808b219803fb2a77ba5c95f0aea238c14128a7e2fc6791588cd7735d31",
     (32, None, None, 5.1694217395992625, 0.0)),
    (5, 0.5, "54b26c5bff9db001122432448afc125f50eca17bb27681968a6d5f971220b5de",
     (85, None, None, 0.7737809374999999, 3.7399999999999425)),
    (6, 0.1, "186b2794404bd18b175f0351cf29956e9ea85aff51c2937bdf24e75dcbf8c103",
     (242, None, None, 1.9595417003875326, 0.0)),
]


@pytest.mark.parametrize("example,T,action_hash,endpoint", PINS, ids=["example%d" % p[0] for p in PINS])
def test_action_sequence_and_endpoint_are_pinned(example, T, action_hash, endpoint, tmp_path):
    cfg = experiments.example_config(example, T=T)
    with contextlib.redirect_stdout(io.StringIO()):
        records = experiments.run(cfg, out=str(tmp_path / "pin.csv"))
    sequence = "\n".join(";".join(rec.actions) for rec in records)
    last = records[-1]
    assert (last.order, last.order_x, last.order_y, last.beta, last.x_left) == endpoint
    assert hashlib.sha256(sequence.encode()).hexdigest() == action_hash
