import numpy as np
import pytest

from tamecube.cubes import (
    chamber_region,
    dist_to_complex,
    dist_to_region,
    j_complex,
    j_delta_region,
    region_grid,
)
from tamecube.errors import DomainError
from tamecube.retract import (
    RetractionParams,
    approx_retraction,
    deformation_retraction_homotopy,
    deformation_schedule,
)


def _grid(n, res):
    axes = [np.linspace(0, 1, res)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def test_params_validation():
    with pytest.raises(DomainError):
        RetractionParams(2, eps=0.2, sigma=0.05, eps_prime=0.3)  # eps_prime > eps
    with pytest.raises(DomainError):
        RetractionParams(2, eps=0.2, sigma=0.2, eps_prime=0.21)
    with pytest.raises(DomainError):
        RetractionParams(0, eps=0.3, sigma=0.1, eps_prime=0.2)
    p = RetractionParams.from_eps(3, 0.3)
    assert p.sigma == pytest.approx(0.15) and p.eps_prime == pytest.approx(0.225)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.4])
def test_image_containment_and_chamber_identity(n, eps):
    R = approx_retraction(RetractionParams.from_eps(n, eps))
    pts = _grid(n, 11)
    assert dist_to_complex(j_complex(n), R.eval_many(pts)).max() <= 1e-9
    chamber = region_grid(chamber_region(j_complex(n), eps), 7)
    assert np.max(np.abs(R.eval_many(chamber) - chamber)) <= 1e-12


def test_pointwise_examples():
    R = approx_retraction(RetractionParams.from_eps(2, 0.3))
    assert tuple(R.eval([0.5, 1.0])) == (0.5, 1.0)
    # near the top the last output saturates at 1
    p = RetractionParams.from_eps(2, 0.3)
    for t in (0.2, 0.5, 0.9):
        assert R.eval([t, 1.0 - p.sigma / 2])[1] == 1.0
    # wide middle band forces the last output to 1 by the mirrored pair
    for u in (0.1, 0.4, 0.7):
        assert R.eval([0.5, u])[1] == pytest.approx(1.0, abs=1e-9)


def test_n1_collapses_to_top_point():
    R = approx_retraction(RetractionParams.from_eps(1, 0.25))
    ts = np.linspace(0, 1, 33).reshape(-1, 1)
    assert np.max(np.abs(R.eval_many(ts) - 1.0)) <= 1e-9


def test_side_band_outputs_track_identity_on_chamber_times():
    p = RetractionParams.from_eps(2, 0.3)
    R = approx_retraction(p)
    for u in (0.3, 0.5, 0.7):
        for t in (0.0, 1.0):
            out = R.eval([t, u])
            assert out[0] == t
            assert out[1] == pytest.approx(u, abs=1e-12)


def test_deformation_schedule_and_clamp():
    # the wide identity-band endpoint eps^(n-2) is clamped to 1/2 only at n = 2
    assert deformation_schedule(3, 0.3)["tau_wide"] == 0.3
    assert deformation_schedule(2, 0.3)["tau_wide"] == 0.5
    with pytest.raises(DomainError):
        deformation_schedule(2, 0.5)  # sigma endpoint would meet the clamp


@pytest.mark.parametrize("n", [1, 2, 3])
def test_deformation_endpoints(n):
    eps = 0.3
    H = deformation_retraction_homotopy(n, eps)
    pts = _grid(n, 9)
    z = np.concatenate([pts, np.zeros((len(pts), 1))], axis=1)
    o = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    assert np.max(np.abs(H.map.eval_many(z) - pts)) <= 1e-12
    assert dist_to_complex(j_complex(n), H.map.eval_many(o)).max() <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_deformation_fixes_chamber_at_every_time(n):
    eps = 0.3
    delta = eps ** (n - 1)
    H = deformation_retraction_homotopy(n, eps)
    chamber = region_grid(chamber_region(j_complex(n), delta), 7)
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        su = np.concatenate([chamber, np.full((len(chamber), 1), u)], axis=1)
        assert np.max(np.abs(H.map.eval_many(su) - chamber)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_deformation_preserves_collar_region(n):
    eps = 0.3
    delta = eps ** (n - 1)
    region = j_delta_region(n, delta)
    H = deformation_retraction_homotopy(n, eps)
    pts = region_grid(region, 9)
    for u in (0.25, 0.5, 0.75, 1.0):
        su = np.concatenate([pts, np.full((len(pts), 1), u)], axis=1)
        assert dist_to_region(region, H.map.eval_many(su)).max() <= 1e-9
