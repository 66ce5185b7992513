"""Controller decisions pinned on all six studies at short horizons.

Each study's action sequence (the sha256 of its steps' actions, one line
per step, joined by ';', as bench/child.py hashes it) and its endpoint
space (N or Nx/Ny, beta, x_left) must stay exactly as recorded, and so must
the sha256 of its CSV log, every error and indicator to the last digit
written.  A change meant to leave the arithmetic bit for bit unchanged that
flips a single controller decision, or a single bit of a logged value,
fails here, not only in the benchmark's fingerprint.
"""

import contextlib
import hashlib
import io

import pytest

from adaptspec import experiments

PINS = [
    (1, 1.0, "d3ade467c0d4a523a6933f1299fa9e078e9faa08d44c30ffed7ae6f18d2e5b7c",
     (16, None, None, None, None),
     "9ec3995650cb0dffb0d481dc3071b25fdb78e5a55b70a9ca0d641070f8fa691c"),
    (2, 1.0, "f70fe8f98c5b8c3608a7e61760810a4f17ceae38328e025bdac01fc872582925",
     (None, 40, 38, None, None),
     "a2c40c9ef9a0a405933ee3a68c2b2d81612e6ef1df7ebd19b9e1652f0ef60d7c"),
    (3, 1.0, "2afb00109c7f60e5d3956b2aacb608892342be4cf93b20a47459cbffa39ffafb",
     (56, None, None, 2.161440350650546, 0.0),
     "c10050b497b2ce04cb47ea166f10a86bdad15d5685989ccc429b7ccc2fe56519"),
    (4, 1.0, "fb998d808b219803fb2a77ba5c95f0aea238c14128a7e2fc6791588cd7735d31",
     (32, None, None, 5.1694217395992625, 0.0),
     "244ae2fdb51ba6997db780c39019c080be08e349bd80a349356af32f922f9a37"),
    (5, 0.5, "54b26c5bff9db001122432448afc125f50eca17bb27681968a6d5f971220b5de",
     (85, None, None, 0.7737809374999999, 3.7399999999999425),
     "6558fa89aabc9dc520c363b2d75fbc5d994af14e49e293388b89c60a59591d68"),
    (6, 0.1, "186b2794404bd18b175f0351cf29956e9ea85aff51c2937bdf24e75dcbf8c103",
     (242, None, None, 1.9595417003875326, 0.0),
     "49aaa989438793e14dddac40094403cec95c96307d8b41cdb00699ba631b0075"),
]


@pytest.mark.parametrize("example,T,action_hash,endpoint,csv_hash", PINS,
                         ids=["example%d" % p[0] for p in PINS])
def test_action_sequence_and_endpoint_are_pinned(example, T, action_hash, endpoint, csv_hash,
                                                 tmp_path):
    cfg = experiments.example_config(example, T=T)
    with contextlib.redirect_stdout(io.StringIO()):
        records = experiments.run(cfg, out=str(tmp_path / "pin.csv"))
    sequence = "\n".join(";".join(rec.actions) for rec in records)
    last = records[-1]
    assert (last.order, last.order_x, last.order_y, last.beta, last.x_left) == endpoint
    assert hashlib.sha256(sequence.encode()).hexdigest() == action_hash
    assert hashlib.sha256((tmp_path / "pin.csv").read_bytes()).hexdigest() == csv_hash
