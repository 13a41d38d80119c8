"""The package root: the modules are the API; the root binds what importers read off it."""

import types

import edlkit
from edlkit import pauli, robustness, sdp, states, witness


def test_root_binds_four_modules_p_noise_and_the_version():
    # callers read these four as attributes after a bare ``import edlkit``
    for name, module in (("pauli", pauli), ("sdp", sdp), ("states", states), ("witness", witness)):
        assert getattr(edlkit, name) is module
    # one function object under the three names a call tracer has to wrap
    assert edlkit.p_noise is witness.p_noise is robustness.p_noise
    assert isinstance(edlkit.__version__, str)
    public = {
        name for name, value in vars(edlkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"p_noise"}
