"""Backend-selection and build/caching semantics of ``repro.native``.

Covers the fallback contract: when the C toolchain (or the cached
library) is unavailable the package must fall back to the packed NumPy
path **exactly once** with a logged warning — not per call — while an
explicit ``set_backend("native")`` must raise the typed
:class:`~repro.native.BackendUnavailableError`.
"""

import logging
import os

import numpy as np
import pytest

from repro import native
from repro.modmath import StackedModulus, gen_ntt_primes, mul_mod
from repro.native import (
    BackendUnavailableError,
    get_backend,
    set_backend,
    use_backend,
)
from repro.native.build import NativeBuildError

HAVE_TOOLCHAIN = native.available()


@pytest.fixture()
def restore_native():
    """Restore auto backend + library-load state after env tinkering."""
    yield
    set_backend(None)
    native.reset()


def _stacked(k=3, n=32, seed=0):
    rng = np.random.default_rng(seed)
    st = StackedModulus.from_values(gen_ntt_primes([30, 28, 26][:k], 16))
    a = np.stack(
        [rng.integers(0, m.value, n, dtype=np.uint64) for m in st]
    )
    b = np.stack(
        [rng.integers(0, m.value, n, dtype=np.uint64) for m in st]
    )
    return st, a, b


# -- selection ----------------------------------------------------------------


def test_backend_names_and_invalid(restore_native):
    assert native.BACKENDS == ("native", "packed")
    with pytest.raises(ValueError):
        set_backend("vectorized")
    set_backend("packed")
    assert get_backend() == "packed"
    set_backend("auto")
    assert get_backend() in native.BACKENDS


def test_set_backend_serial_is_rejected(restore_native):
    """The per-limb loops are a test oracle, not a selectable backend."""
    set_backend("packed")
    with pytest.raises(ValueError, match="serial"):
        set_backend("serial")
    assert get_backend() == "packed"  # the refused call changed nothing


def test_env_var_selects_backend(restore_native, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "packed")
    native.reset()
    assert get_backend() == "packed"
    # An explicit set_backend overrides the env var.
    if HAVE_TOOLCHAIN:
        set_backend("native")
        assert get_backend() == "native"


def _assert_invalid_env_falls_back(monkeypatch, caplog, value):
    """One warning naming ``value``, then plain auto-detection."""
    monkeypatch.setenv("REPRO_BACKEND", value)
    native.reset()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert get_backend() in ("native", "packed")
        for _ in range(3):  # re-resolutions must not warn again
            with use_backend("auto"):
                get_backend()
    warnings = [
        r for r in caplog.records
        if "ignoring invalid REPRO_BACKEND" in r.getMessage()
    ]
    assert len(warnings) == 1
    assert value in warnings[0].getMessage()
    assert get_backend() == ("native" if HAVE_TOOLCHAIN else "packed")


def test_env_var_invalid_falls_back_to_auto(restore_native, monkeypatch,
                                            caplog):
    _assert_invalid_env_falls_back(monkeypatch, caplog, "warp-speed")


def test_env_var_serial_is_invalid(restore_native, monkeypatch, caplog):
    """``REPRO_BACKEND=serial`` names no backend any more."""
    _assert_invalid_env_falls_back(monkeypatch, caplog, "serial")


def test_use_backend_restores(restore_native):
    before = get_backend()
    with use_backend("packed"):
        assert get_backend() == "packed"
    assert get_backend() == before


# -- fallback contract --------------------------------------------------------


def test_set_backend_native_raises_typed_when_unavailable(
    restore_native, monkeypatch
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    with pytest.raises(BackendUnavailableError):
        set_backend("native")
    # The typed error leaves the selection untouched and usable.
    assert get_backend() == "packed"


def test_fallback_warns_exactly_once_not_per_call(
    restore_native, monkeypatch, caplog
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    st, a, b = _stacked()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        for _ in range(5):
            mul_mod(a, b, st)  # auto-resolves, discovers unavailability
        assert get_backend() == "packed"
        for _ in range(5):
            mul_mod(a, b, st)
    warnings = [
        r for r in caplog.records
        if "native kernel backend unavailable" in r.getMessage()
    ]
    assert len(warnings) == 1


def test_unavailable_results_still_correct(restore_native, monkeypatch):
    st, a, b = _stacked(seed=7)
    want = mul_mod(a, b, st)
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native.reset()
    got = mul_mod(a, b, st)
    assert np.array_equal(got, want)


def test_env_native_request_degrades_with_warning(
    restore_native, monkeypatch, caplog
):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    monkeypatch.setenv("REPRO_BACKEND", "native")
    native.reset()
    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert get_backend() == "packed"
    assert any(
        "requested the native backend" in r.getMessage()
        for r in caplog.records
    )


# -- build + cache ------------------------------------------------------------


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_build_is_cached(restore_native):
    path1 = native.build()
    stat1 = os.stat(path1)
    path2 = native.build()
    stat2 = os.stat(path2)
    assert path1 == path2
    assert stat1.st_mtime_ns == stat2.st_mtime_ns  # no recompile


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_library_loads_and_reports_path(restore_native):
    assert native.available()
    assert native.availability_error() is None
    path = native.library_path()
    assert path is not None and os.path.exists(path)


def test_missing_compiler_is_typed(restore_native, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CC", "definitely-not-a-compiler")
    with pytest.raises(NativeBuildError):
        native.find_compiler()


@pytest.mark.skipif(not HAVE_TOOLCHAIN, reason="no usable C toolchain")
def test_native_backend_dispatches_bit_identically(restore_native):
    st, a, b = _stacked(seed=11)
    with use_backend("packed"):
        want = mul_mod(a, b, st)
    with use_backend("native"):
        got = mul_mod(a, b, st)
    assert np.array_equal(got, want)
