"""The stdout and exit code of ``hightrans audit`` and ``hightrans reduce``
as a behaviour contract, as ``PINNED`` in test_certificates.py is for
certificates: audit shortcuts must not change a byte of either."""

import contextlib
import hashlib
import io

import pytest

from hightrans import cli

from conftest import problem_path


# (exit code, SHA-256 of stdout) of `hightrans <command> problems/<name>.json`;
# the output is the same at the problems' default bounds and at 2,2,5
PINNED = {
    ("audit", "bs12"): (2, "8dab42806c712ee32e33730af315998864116e5abbfc3893f319f1f68369ec2c"),
    ("reduce", "bs12"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("audit", "free2-hnn"): (0, "e8bfebbc7692ef078efbf34a45f9a2ad65197f5fe5f13d5a63067cf0abae4333"),
    ("reduce", "free2-hnn"): (0, "3efa50135f1791b9eba192d729823bb1d94f810f4bf10f172a089c80f4e3d4fb"),
    ("audit", "gaussian-hnn"): (0, "e4e0f1305cd9718d8ed9c0ab0d9b199923be1abc82d9203b6a4028da6b89f328"),
    ("reduce", "gaussian-hnn"): (0, "087a69846a89a791d441ded7e97724b5139f818af64c112fa348adc50d67414f"),
    ("audit", "pi1-sigma2"): (0, "70d4c464d1fd547b6d7a7160f27c2a93edfdfff188e79c999598aca9f03b3fcb"),
    ("reduce", "pi1-sigma2"): (0, "a8d353a1641a0f3a4e5256e1d3138809fb3d922db3bb16bcec0fbbac6154793b"),
    ("audit", "planted-finite-index-edge"): (2, "ec75f3eddfdd69b1f181563d861ea31cae89bc1c9bb1315ac6f09ddde02622c3"),
    ("reduce", "planted-finite-index-edge"): (2, "1dc64600c8d0ed689fb480827a805f56e837dafb43244af5e48ceebbad7db301"),
    ("audit", "planted-finite-vertex"): (2, "9a555591eb125fda9bd08ce5bde246d9fa79567c155c37dac5021ff1eed101da"),
    ("reduce", "planted-finite-vertex"): (2, "7e0d77de973c0ac7f9a13c67fbe21130884f56798cb2e23b5474eb366c81b6cb"),
    ("audit", "theta"): (0, "79fd92a3af180878be63667f11fd23ec047c1e00aad5a9015913deee68eff774"),
    ("reduce", "theta"): (0, "22b1775cadbb1b1b447d82b0cf4f01bd0230580f4e1d5fb46250db584643bbb2"),
    ("audit", "z-star-z"): (0, "4443439e383d5e1d8cf7d79d31a44fb44e920a9a2b8070f724a4a8057fae62eb"),
    ("reduce", "z-star-z"): (0, "d21b3514b6bb1e96d4b8733d4611eb6b100ad9bba42886990a134e0ec081f62e"),
    ("audit", "z2-z3"): (2, "b79fe45c04089f2f053e2540ac56fb59e982e1896ef3c1fa66628c24c54c2579"),
    ("reduce", "z2-z3"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("bounds", [None, "2,2,5"])
@pytest.mark.parametrize("command, name", sorted(PINNED))
def test_audit_and_reduce_output_pinned(command, name, bounds):
    argv = [command, problem_path(f"{name}.json")]
    if bounds is not None:
        argv += ["--bounds", bounds]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == PINNED[command, name]
