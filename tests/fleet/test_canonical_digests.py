"""Pinned sha256 of the canonical CLI outputs the fleet and simload
targets print.

These bytes are the oracle that makes refactors of the barrier loop, the
shard stepping and the fleet nodes safe: a change that alters any
simulated value, message, window count or trace line moves a digest.
Worker-count invariance is checked elsewhere; these runs are serial.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from repro.__main__ import main

DIGESTS = {
    "fleet --scenario cluster --machines 12 --seed 2007":
        "a9eb45f612010def773075f9185a51030814480cf5d7280c3af2e3e499c7cad4",
    "fleet --scenario maintenance --machines 6 --guest-domains 2 "
    "--seed 2007":
        "524c6f733aa63315f9517584fe6c983640be127927a5f11cda9db8d6084ced23",
    "fleet --machines 10 --workers 1 --seed 7":
        "02e87a81aef256ef87ff50af59db0a736d0a2952aa4fcf6bf803576c6c162b98",
    "simload":
        "804f23aeea4f804716322bec092b3c60dc3bea76d9cec6d42159d683459ffec0",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_canonical_output_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(command.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[command], (
        f"`python -m repro {command}` changed its canonical output")
