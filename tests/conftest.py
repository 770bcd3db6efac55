import numpy as np
import pytest

from cobsim import crypto, netsim
from cobsim.crypto import KeyRegistry


@pytest.fixture
def registry():
    return KeyRegistry(40, crypto.digest(b"test-master"))


def make_network(n=20, byz=(), seed=7, strategies=None, topology="watts_strogatz",
                 lam_base=1.0, lam_per_byte=1e-4, d_min=0.02, d_max=0.1, topo_params=None):
    byz = set(byz)
    reg = KeyRegistry(n, crypto.digest(b"net-master", seed.to_bytes(8, "big")))
    adj = netsim.build_topology(n, byz, topology, topo_params or {}, seed)
    return netsim.Network(
        n, byz, adj, reg, seed, lam_base, lam_per_byte, d_min, d_max,
        strategies or {}, netsim.Trace(),
    )


def bootstrap(net, seed=1, skew=0.5):
    rng = np.random.default_rng(seed)
    entropy = crypto.digest(b"entropy", seed.to_bytes(8, "big"))
    netsim.synchronize(net, b"testchain", entropy, skew, rng)
    return entropy
