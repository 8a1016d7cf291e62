import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epqed import master
from epqed.blockade import BlockadeResult, g2_sweep, g2_zero, solve_layout
from epqed.errors import StatisticsUndefinedError
from epqed.hilbert import SpaceLayout, cavity_ops, qubit_lowering
from epqed.params import DriveSpec, ModelParams

LAYOUT = SpaceLayout(1, 4)
EP = ModelParams(g=5.0, kappa=20.0, gamma=1.0)            # delta_phi = 0, resonant
DP = ModelParams(g=5.0, kappa=20.0, gamma=1.0, r_abs=0.0)


def drive(detuning=0.0, amplitude=0.2):
    return DriveSpec(omega_drive=detuning, amplitude=amplitude)


def critical_coupling(kappa: float, gamma: float) -> float:
    """Strong-coupling threshold sqrt(kappa^2 + gamma^2)/4 of the reference cavity."""
    if kappa < 0 or gamma < 0:
        raise ValueError("rates must be nonnegative")
    return float(np.sqrt(kappa**2 + gamma**2) / 4.0)


def test_critical_coupling_values():
    assert critical_coupling(20.0, 1.0) == pytest.approx(5.0062, abs=1e-4)
    assert critical_coupling(20.0, 0.0) == pytest.approx(5.0)
    assert critical_coupling(0.0, 0.0) == 0.0


def test_empty_driven_chain_is_coherent():
    # no emitter: the driven mode holds a coherent state, g2 = 1
    p = EP.replace(g=0.0)
    res = g2_zero(p, drive(detuning=3.0), LAYOUT, measure="cavity_R")
    assert res.g2 == pytest.approx(1.0, abs=1e-6)


def test_unpopulated_mode_has_no_statistics():
    # nothing feeds the left mode when g = 0 (the mirror feed runs L -> R)
    p = EP.replace(g=0.0)
    with pytest.raises(StatisticsUndefinedError):
        g2_zero(p, drive(), LAYOUT, measure="cavity_L")


def test_strong_drive_warns():
    # from both entry points, and pointing at their caller
    strong = drive(amplitude=0.11 * EP.kappa)
    for run in (lambda: g2_zero(EP, strong, LAYOUT),
                lambda: g2_sweep(EP, strong, np.array([0.0]), LAYOUT)):
        with pytest.warns(UserWarning) as caught:
            run()
        assert [w.filename for w in caught if w.category is UserWarning] == [__file__]


def test_cutoff_floor_enforced():
    with pytest.raises(ValueError):
        g2_zero(EP, drive(), SpaceLayout(1, 3))


def test_ep_antibunching_at_bound_state_point():
    res = g2_zero(EP, drive(), LAYOUT)
    assert res.g2 <= 0.01
    assert res.n_L > 1e-3


def test_sweep_matches_pointwise_and_is_symmetric():
    dets = np.array([-4.0, -1.5, 0.0, 1.5, 4.0])
    sweep = g2_sweep(EP, drive(), dets, LAYOUT)
    assert len(sweep.results) == len(dets)
    assert not sweep.errors
    for det, row in zip(dets, sweep.results):
        direct = g2_zero(EP, drive(detuning=det), LAYOUT)
        assert row.g2 == pytest.approx(direct.g2, abs=1e-9)
        assert row.n_L == pytest.approx(direct.n_L, abs=1e-12)
    g2_vals = [r.g2 for r in sweep.results]
    assert g2_vals[0] == pytest.approx(g2_vals[-1], rel=1e-9)
    assert g2_vals[1] == pytest.approx(g2_vals[-2], rel=1e-9)


@given(g=st.floats(1.0, 10.0), kappa=st.floats(5.0, 30.0), gamma=st.floats(0.1, 5.0),
       r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi),
       amp_frac=st.floats(0.01, 0.1), dets=st.lists(st.floats(-10.0, 10.0), min_size=2,
                                                     max_size=3, unique=True))
@settings(max_examples=15, deadline=None)
@example(g=1.1028648978590008, kappa=5.0, gamma=1.5, r_abs=0.9275323086396827,
         phi=-0.5484285336828729, amp_frac=0.0625, dets=[-1.8706346360583135, 8.0])
def test_sweep_rows_equal_g2_zero_on_random_parameters(g, kappa, gamma, r_abs, phi,
                                                       amp_frac, dets):
    # both shift one build in the cavity frame by the detuning: the same solve
    p = ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi)
    amp = amp_frac * kappa
    sweep = g2_sweep(p, drive(amplitude=amp), np.array(dets), LAYOUT)
    direct = [g2_zero(p, drive(detuning=d, amplitude=amp), LAYOUT) for d in dets]
    assert sweep.results == direct


def _assert_rows_match(sweep, direct):
    """Each sweep row against g2_zero's: residual, n_L to 1e-10 relative and
    <c+c+cc> = g2 n_L^2 to 1e-15 absolute (g2 itself divides by a small n_L^2)."""
    assert not sweep.errors
    for row, ref in zip(sweep.results, direct, strict=True):
        assert row.detuning == ref.detuning and row.residual <= 1e-10
        assert abs(row.n_L - ref.n_L) <= 1e-10 * ref.n_L
        assert abs(row.g2 * row.n_L**2 - ref.g2 * ref.n_L**2) <= 1e-15


def test_sweep_collects_per_point_errors_and_continues():
    p = EP.replace(g=0.0)   # left mode empty at every detuning
    dets = [-1.0, 0.0, 1.0]
    sweep = g2_sweep(p, drive(), np.array(dets), LAYOUT, measure="cavity_L")
    assert len(sweep.errors) == 3
    for det, entry in zip(dets, sweep.errors):
        assert entry == [det, entry[1]]   # a list, as the CLI's sidecar records it
        assert entry[1].startswith("StatisticsUndefinedError: measured-mode population")
    assert all(np.isnan(r.g2) for r in sweep.results)
    assert np.isnan(sweep.min_g2)


def test_dp_curve_flat_relative_to_ep():
    dets = np.linspace(-10.0, 10.0, 21)
    sw_dp = g2_sweep(DP, drive(), dets, LAYOUT)
    sw_ep = g2_sweep(EP, drive(), dets, LAYOUT)
    ratio_dp = max(r.g2 for r in sw_dp.results) / min(r.g2 for r in sw_dp.results)
    ratio_ep = max(r.g2 for r in sw_ep.results) / min(r.g2 for r in sw_ep.results)
    assert ratio_dp < ratio_ep


def test_quarter_phase_order_of_magnitude_improvement():
    from epqed.spectra import delta_omega_bic
    dets = np.linspace(-10.0, 10.0, 21)
    sw_dp = g2_sweep(DP, drive(), dets, LAYOUT)
    d0c = delta_omega_bic(5.0, 20.0, np.pi / 4)
    p = ModelParams.from_delta_phi(np.pi / 4, g=5.0, kappa=20.0, gamma=1.0,
                                   omega0=d0c)
    sw = g2_sweep(p, drive(), dets, LAYOUT)
    assert sw_dp.min_g2 / sw.min_g2 >= 10.0
    assert sw.max_n_L / sw_dp.max_n_L >= 10.0


def test_drive_linearity():
    # halving a weak drive leaves g2 within 5% and scales n_L by ~1/4
    for p, det in ((EP, 0.0), (DP, -5.3)):
        a = g2_zero(p, drive(detuning=det, amplitude=0.1), LAYOUT)
        b = g2_zero(p, drive(detuning=det, amplitude=0.05), LAYOUT)
        assert a.g2 == pytest.approx(b.g2, rel=0.05)
        assert a.n_L / b.n_L == pytest.approx(4.0, rel=0.1)


def test_fock_cutoff_robustness():
    a = g2_zero(EP, drive(), SpaceLayout(1, 4))
    b = g2_zero(EP, drive(), SpaceLayout(1, 5))
    assert abs(a.g2 - b.g2) / b.g2 < 1e-3
    assert a.g2 >= 0 and a.n_L >= 0


def test_solve_layout_caps_at_the_cutoff_unless_capped():
    assert solve_layout(SpaceLayout(1, 4)) == SpaceLayout(1, 4, max_excitations=4)
    assert solve_layout(SpaceLayout(2, 5, 3)) == SpaceLayout(2, 5, 3)
    # the default rule is what g2_zero solves; a cap at the largest N is the box
    assert g2_zero(EP, drive(), LAYOUT) == g2_zero(EP, drive(), SpaceLayout(1, 4, 4))
    box = SpaceLayout(1, 4, 7)
    rho = master.steady_state(master.build_liouvillian(
        EP, SpaceLayout(1, 4), drive=drive()))
    c_l, _ = cavity_ops(box)
    n_l = rho.expect(c_l.conj().T @ c_l).real
    assert g2_zero(EP, drive(), box).n_L == n_l
    with pytest.raises(ValueError, match="max_excitations"):
        g2_zero(EP, drive(), SpaceLayout(1, 4, 2))


def test_sweep_equals_g2_zero_on_two_qubit_capped_layout():
    lay = SpaceLayout(2, 4, 3)
    p = ModelParams(g=4.0, kappa=20.0, gamma=1.0, phi_prop=0.3, phi_azim=(0.0, 1.1))
    dets = np.array([-3.0, 0.5, 2.0])
    sweep = g2_sweep(p, drive(amplitude=1.0), dets, lay)
    direct = [g2_zero(p, drive(detuning=d, amplitude=1.0), lay) for d in dets]
    assert sweep.results == direct


def test_result_fields():
    res = BlockadeResult(detuning=0.5, g2=0.1, n_L=1e-3)
    assert res.detuning == 0.5


layouts = st.builds(SpaceLayout, st.integers(0, 2), st.integers(2, 5),
                    st.none() | st.integers(1, 9))


@given(lay=layouts)
@settings(max_examples=20, deadline=None)
def test_detuning_derivative_equals_two_kron_form(lay):
    c_l, c_r = cavity_ops(lay)
    n_exc = c_l.conj().T @ c_l + c_r.conj().T @ c_r
    for sm in (qubit_lowering(lay, i) for i in range(lay.n_qubits)):
        n_exc = n_exc + sm.conj().T @ sm
    # the operator products carry rounding (sqrt(3)^2 != 3); the excitation number does not
    n_int = np.diag(np.round(np.diagonal(n_exc).real))
    assert np.abs(n_exc - n_int).max() <= 1e-14
    eye = np.eye(lay.dim)
    ref = 1j * (scipy.sparse.kron(eye, n_int) - scipy.sparse.kron(n_int.T, eye))
    deriv = scipy.sparse.diags(master.detuning_derivative(lay), format="csr")
    assert deriv.format == "csr" and (deriv != ref).nnz == 0


@given(lay=layouts, det=st.floats(-20.0, 20.0), shift=st.floats(-20.0, 20.0),
       r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi))
@settings(max_examples=20, deadline=None)
def test_detuning_derivative_is_the_frame_derivative(lay, det, shift, r_abs, phi):
    # the sweep's affine step from one drive frequency to another is exact
    p = ModelParams(g=3.0, kappa=10.0, gamma=1.0, r_abs=r_abs, phi_prop=phi, omega0=0.4)
    gen = [master.build_liouvillian(p, lay, drive=drive(d)).generator for d in (det, det + shift)]
    diff = gen[1] - gen[0] - shift * scipy.sparse.diags(master.detuning_derivative(lay))
    assert abs(diff).max() <= 1e-13 * (1.0 + abs(det) + abs(shift))


def _stats(p, d, lay):
    """(g2, n_L) of the left mode from the steady state in layout lay, as it is."""
    rho = master.steady_state(master.build_liouvillian(p, lay, drive=d))
    c_l, _ = cavity_ops(lay)
    n_l = rho.expect(c_l.conj().T @ c_l).real
    return np.array([rho.expect(c_l.conj().T @ c_l.conj().T @ c_l @ c_l).real / n_l**2, n_l])


@given(two=st.booleans(), g=st.floats(1.0, 10.0), kappa=st.floats(5.0, 30.0),
       gamma=st.floats(0.1, 5.0), r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi),
       phi2=st.floats(-np.pi, np.pi), det=st.floats(-10.0, 10.0),
       amp_frac=st.floats(0.01, 0.1))
@settings(max_examples=8, deadline=None)
def test_cap_at_cutoff_stays_within_the_box_truncation_error(two, g, kappa, gamma, r_abs,
                                                             phi, phi2, det, amp_frac):
    # the cap K = c drops only box states with N >= c + 1, so the capped g2 and n_L
    # are as converged as the box's: their distance from the box at c + 1 is bounded
    # by the box's own truncation error |box(c) - box(c + 1)|, to a factor 10.  The
    # cap's part |cap(c) - box(c)| falls as Omega^2 against that error, but is not
    # always smaller: sampling this domain gave ratios up to 3.3.  Floors: rounding
    # of g2 (a two-photon probability ~ n_L^2) and of n_L
    n, c = (2, 3) if two else (1, 4)
    p = ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi,
                    phi_azim=(0.0, phi2)[:n])
    d = drive(detuning=det, amplitude=amp_frac * kappa)
    cap, box, box_next = (_stats(p, d, lay) for lay in (
        SpaceLayout(n, c, c), SpaceLayout(n, c), SpaceLayout(n, c + 1)))
    floor = np.array([1e-8, 1e-10]) * np.abs(box)
    assert np.all(np.abs(cap - box_next) <= 10.0 * np.abs(box - box_next) + floor)


# ---------------------------------------------------------------------------
# sweeps from one banded LU and a shared Krylov basis
# ---------------------------------------------------------------------------

@given(lay=st.sampled_from([SpaceLayout(1, 4), SpaceLayout(1, 5), SpaceLayout(2, 4, 3)]),
       g=st.floats(1.0, 10.0), kappa=st.floats(5.0, 30.0), gamma=st.floats(0.1, 5.0),
       r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi), phi2=st.floats(-np.pi, np.pi),
       amp_frac=st.floats(0.01, 0.1),
       dets=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40, unique=True))
@settings(max_examples=15, deadline=None)
def test_multi_shift_rows_match_per_point_direct_solves(lay, g, kappa, gamma, r_abs, phi,
                                                         phi2, amp_frac, dets):
    # every state of a sweep against the banded LU of its own detuning, and the
    # sweep's rows against g2_zero; a shared-basis row differs from a direct solve
    # by rounding, so g2 = <c+c+cc>/n_L^2 is bounded through <c+c+cc> and n_L
    p = ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi,
                    phi_azim=(0.0, phi2)[:lay.n_qubits])
    d = drive(amplitude=amp_frac * kappa)
    solved = solve_layout(lay)
    solver = master.SteadyStateSolver(master.build_liouvillian(p, solved, drive=d, frame=0.0))
    c_l, _ = cavity_ops(solved)
    n_op = c_l.conj().T @ c_l
    pair_op = c_l.conj().T @ n_op @ c_l
    state, _, _ = solver.sweep(dets)
    for det in dets:
        rho, residual = state(det)
        assert residual <= 1e-10
        ref, _ = solver(det)
        assert np.abs(rho.entries - ref.entries).max() <= 1e-12
        n_l, n_ref = rho.expect(n_op).real, ref.expect(n_op).real
        assert abs(n_l - n_ref) <= 1e-10 * n_ref
        assert abs(rho.expect(pair_op).real - ref.expect(pair_op).real) <= 1e-15
    _assert_rows_match(g2_sweep(p, d, np.array(dets), lay), [
        g2_zero(p, drive(detuning=det, amplitude=amp_frac * kappa), lay) for det in dets])


def _count_calls(monkeypatch, module, names, change=None):
    """Count the calls of module.<name> for each name; change(name, result) may alter
    what a call returns."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            result = _original(*args, **kwargs)
            return result if change is None else change(_name, result)
        monkeypatch.setattr(module, name, counted)
    return calls


def _outcomes(sweep):
    """Each row of a sweep, or the [detuning, "TypeName: message"] of its failure."""
    failed = {entry[0]: entry for entry in sweep.errors}
    return [failed.get(r.detuning, r) for r in sweep.results]


def _g2_zero_outcome(p, d, lay, det):
    try:
        return g2_zero(p, DriveSpec(omega_drive=det, amplitude=d.amplitude), lay)
    except Exception as exc:
        return [det, f"{type(exc).__name__}: {exc}"]


def test_fig8c_sweep_factors_once(monkeypatch):
    import scipy.linalg.lapack as lapack
    calls = _count_calls(monkeypatch, lapack, ["zgbtrf"])
    sweep = g2_sweep(EP, drive(), np.linspace(-12.0, 12.0, 97), LAYOUT)
    assert calls == {"zgbtrf": 1}
    assert not sweep.errors and sweep.base_detuning == 0.0 and 0 < sweep.krylov_dim <= 100
    assert max(r.residual for r in sweep.results) <= 1e-10


def test_point_missing_the_bound_on_the_shared_basis_is_solved_directly(monkeypatch):
    # the shared basis's vector of one point (or of every point) is spoilt: those points
    # are solved by their own LU, with g2_zero's result, or g2_zero's failure where the
    # undriven EP at gamma = 0 leaves the left mode empty
    import scipy.linalg.blas as blas
    import scipy.linalg.lapack as lapack
    dets = np.linspace(-4.5, 3.5, 9)
    for p, d, spoilt in ((EP, drive(), [3]), (EP.replace(gamma=0.0), drive(amplitude=0.0),
                                              list(range(9)))):
        formed = [0]   # vectors are formed one at a time, in the order they are asked for

        def spoil(name, vector, formed=formed, spoilt=spoilt):
            if formed[0] in spoilt:
                vector += 1e-6
            formed[0] += 1
            return vector
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, lapack, ["zgbtrf"])
            _count_calls(patch, blas, ["zgemm"], spoil)
            sweep = g2_sweep(p, d, dets, LAYOUT)
        assert calls == {"zgbtrf": 1 + len(spoilt)} and formed == [len(dets)]
        outcomes = _outcomes(sweep)
        for i in spoilt:
            assert outcomes[i] == _g2_zero_outcome(p, d, LAYOUT, dets[i])


def test_each_shared_vector_is_formed_once_by_one_single_column_product(monkeypatch):
    # a sweep holds one vector at a time, not one per point: a grid walked in any order
    # forms each kept shift's vector when it is asked for, from at most krylov_dim
    # basis vectors, and no point falls back to its own LU
    import scipy.linalg.blas as blas
    import scipy.linalg.lapack as lapack
    shapes = []

    def record(name, vector):
        shapes.append(vector.shape)
        return vector
    dets = np.random.default_rng(7).permutation(np.linspace(-12.0, 12.0, 97))
    calls = _count_calls(monkeypatch, lapack, ["zgbtrf"])
    products = _count_calls(monkeypatch, blas, ["zgemm"], record)
    sweep = g2_sweep(EP, drive(), dets, LAYOUT)
    assert not sweep.errors and calls == {"zgbtrf": 1} and products == {"zgemm": len(dets)}
    assert shapes == [(solve_layout(LAYOUT).dim ** 2, 1)] * len(dets)
    assert 0 < sweep.krylov_dim < len(dets)
    assert [r.detuning for r in sweep.results] == list(dets)


def test_singular_base_factor_solves_every_point_directly(monkeypatch):
    # a base factor zgbtrf reports singular, and one that is: g = gamma = 0 leaves the
    # emitter's levels conserved, so every point's kernel is degenerate
    import scipy.linalg.lapack as lapack
    dets = np.linspace(-3.5, 3.5, 8)
    for p, d, singular in ((EP, drive(), lambda name, r: (*r[:2], 1) if calls[name] == 1 else r),
                           (EP.replace(g=0.0, gamma=0.0), drive(amplitude=0.0), None)):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, lapack, ["zgbtrf"], singular)
            sweep = g2_sweep(p, d, dets, LAYOUT)
        assert calls == {"zgbtrf": 1 + len(dets)}
        assert sweep.krylov_dim == 0 and np.isnan(sweep.base_detuning)
        assert _outcomes(sweep) == [_g2_zero_outcome(p, d, LAYOUT, det) for det in dets]
    assert all(e[1].startswith("DegenerateSteadyStateError: ") for e in sweep.errors)


def test_short_sweep_is_solved_point_by_point(monkeypatch):
    # a shared basis costs one factor plus some 30-100 back-substitutions, more than
    # two or three factors: such sweeps are per-point solves, and g2_zero's rows
    import scipy.linalg.lapack as lapack
    for dets in ([-3.0, 2.0], [-12.0, 0.0, 12.0]):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, lapack, ["zgbtrf"])
            sweep = g2_sweep(EP, drive(), np.array(dets), LAYOUT)
        assert calls == {"zgbtrf": len(dets)} and sweep.krylov_dim == 0
        assert sweep.results == [g2_zero(EP, drive(detuning=det), LAYOUT) for det in dets]


def test_non_finite_detuning_fails_as_g2_zero_does_without_a_solve(monkeypatch):
    # g2_zero cannot be given such a point: its DriveSpec rejects the drive frequency
    import scipy.linalg.lapack as lapack
    dets = [np.nan, 0.0, np.inf, -np.inf]
    calls = _count_calls(monkeypatch, lapack, ["zgbtrf"])
    sweep = g2_sweep(EP, drive(), np.array(dets), LAYOUT)
    assert calls == {"zgbtrf": 1}
    assert sweep.results[1] == g2_zero(EP, drive(), LAYOUT)
    failed = [det for det in dets if not np.isfinite(det)]
    assert [e[1] for e in sweep.errors] == [_g2_zero_outcome(EP, drive(), LAYOUT, det)[1]
                                            for det in failed]
    assert np.array_equal([e[0] for e in sweep.errors], failed, equal_nan=True)
    assert all(np.isnan(sweep.results[i].g2) for i in (0, 2, 3))
