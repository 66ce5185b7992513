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
    (2, 1.0, "f70fe8f98c5b8c3608a7e61760810a4f17ceae38328e025bdac01fc872582925",
     (None, 40, 38, None, None),
     "8e8c69c2deb2b135bc7535ba18cdf7208a51aa0f046c5f5d91d53b7418fb4539"),
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
     "651d438f8c240fbb0d1909283eff4954276a40e3c310847d370267d508861ef3"),
]

# The horizons of the bounded-tensor bench workload, so that every workload's
# seed-0 run is pinned here (the other three run examples 3, 5 and 6 as above).
BENCH_PINS = [
    (2, 5.0, "2e306dc81b30c34cf6b8cca46adb8a84d49a141d159a82932455910b0494594c",
     (None, 64, 45, None, None),
     "22f876dfb83f0d21c41469dbd703c4d7461e51eb0d9ed5e5ff4f865b5a247b95"),
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
