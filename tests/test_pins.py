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
     "c1c79e627e000c14e69c5699910b3b15a394e49ad0cc7b0007ba932faaec5d0d"),
    (2, 1.0, "85538bbf196459e53a0c984f861cc9a131085a52a251c88c7662cc14d36792a0",
     (None, 37, 38, None, None),
     "5a9c20a9fbd89cc8666c6715172ce5481dbf041b81bf766b53e0ed25a791c702"),
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
     "c6573cd247f6474ab323cd994fc48c85599a1a10ed94bd441c5eef7d51ec3c83"),
]

# The horizons of the bounded-tensor bench workload, so that every workload's
# seed-0 run is pinned here (the other three run examples 3, 5 and 6 as above).
BENCH_PINS = [
    (2, 5.0, "c0cba5a2e80ce0ed5f7de07c8f170501db823ebd9fbea617e8c592d8e59b16a9",
     (None, 41, 45, None, None),
     "504650a636ae50665067abf494d02fb1da611745530221916a71305f796b0cb4"),
    (1, 2.0, "adf8b071f28f142563a6e19bdae5bd52e791c73600eb13515369e79b0fb22d81",
     (20, None, None, None, None),
     "b642cbba9f30683b4a91244415ed48a42c21c04aead5a3020cbd9d3f8ec391ff"),
]


@pytest.mark.parametrize("example,T,action_hash,endpoint,csv_hash", PINS + BENCH_PINS,
                         ids=["example%d" % p[0] for p in PINS]
                         + ["example%d_T%g" % p[:2] for p in BENCH_PINS])
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
