//! The traced transport pipeline, rebuilt from public omen calls.
//!
//! Each function mirrors one omen driver step for step — the same calls
//! with the same floating-point operations in the same order — and wraps
//! every layer in a span, so the traced replay reproduces the untraced
//! outputs bit for bit:
//!
//! * [`energy_point`] mirrors `omen_wf::wf_transport_at_energy` (Thomas)
//!   and, with a communicator, `wf_transport_splitsolve`: contacts →
//!   assembly (A, Γ eigendecomposition in `injection_bundle`, RHS packing)
//!   → solve → observables (the private WF observables, rebuilt from
//!   public linalg calls);
//! * [`transport`] mirrors `omen_core::ballistic::ballistic_solve` with the
//!   WF-Thomas engine: hamiltonian → lead_blocks → window → energy points
//!   → integrate;
//! * [`scf_point`] mirrors `omen_core::scf::self_consistent_banked` under
//!   `Schedule::Static`: grid transfers, transport, and the nonlinear
//!   Poisson solve with the exponential charge predictor.

use crate::trace::Tracer;
use omen_core::ballistic::{integrate, BallisticResult};
use omen_core::energy::transport_window;
use omen_core::{Bias, NanoTransistor, ScfOptions};
use omen_linalg::{matmul, matmul_h_n, ZMat};
use omen_negf::rgf::build_a_matrix;
use omen_negf::transport::{EnergyPointData, DEFAULT_ETA};
use omen_negf::{ContactSelfEnergy, Side};
use omen_num::{OmenResult, SweepReport};
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;
use omen_wf::transport::MODE_TOL;
use omen_wf::{injection_bundle, splitsolve_parallel, thomas_solve};

/// The block solver behind one energy point.
#[derive(Clone, Copy)]
pub enum Solver<'a> {
    /// Sequential block Thomas (`Engine::WfThomas`).
    Thomas,
    /// SplitSolve on a communicator (the unit solve of the rank sweeps).
    Split(&'a Comm<'a>),
}

/// One WF energy point: contacts, assembly, solve, observables.
pub fn energy_point(
    t: &mut Tracer,
    e: f64,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    solver: Solver<'_>,
) -> OmenResult<EnergyPointData> {
    t.span("energy_point", |t| {
        let (sl, sr) = t.span("contacts", |t| {
            t.count("negf.contacts.calls", 1.0);
            let sl = ContactSelfEnergy::compute(e, DEFAULT_ETA, lead_l.0, lead_l.1, Side::Left)
                .map_err(|err| err.with_energy(e))?;
            t.count("negf.contacts.calls", 1.0);
            let sr = ContactSelfEnergy::compute(e, DEFAULT_ETA, lead_r.0, lead_r.1, Side::Right)
                .map_err(|err| err.with_energy(e))?;
            t.count("negf.contacts.retries", (sl.retries + sr.retries) as f64);
            OmenResult::Ok((sl, sr))
        })?;
        let (a, b, ml) = t.span("assembly", |_| {
            let a = build_a_matrix(e, DEFAULT_ETA, h, &sl, &sr);
            let wl = injection_bundle(&sl.gamma, MODE_TOL);
            let wr = injection_bundle(&sr.gamma, MODE_TOL);
            let (ml, mr) = (wl.w.ncols(), wr.w.ncols());
            let nb = h.num_blocks();
            let mut b: Vec<ZMat> = (0..nb)
                .map(|i| ZMat::zeros(h.block_size(i), ml + mr))
                .collect();
            b[0].set_block(0, 0, &wl.w);
            b[nb - 1].set_block(0, ml, &wr.w);
            (a, b, ml)
        });
        let psi = t
            .span("solve", |_| match solver {
                Solver::Thomas => thomas_solve(&a, &b),
                Solver::Split(comm) => splitsolve_parallel(comm, &a, &b),
            })
            .map_err(|err| err.with_energy(e))?;
        Ok(t.span("observables", |_| {
            observables(e, h, &sr.gamma, &psi, ml, sl.retries + sr.retries)
        }))
    })
}

/// Transmission and spectral diagonals from the scattering states, in the
/// operation order of the WF engine.
fn observables(
    e: f64,
    h: &BlockTridiag,
    gamma_r: &ZMat,
    psi: &[ZMat],
    ml: usize,
    retries: usize,
) -> EnergyPointData {
    let nb = h.num_blocks();
    let nrhs = psi[0].ncols();
    let two_pi = 2.0 * std::f64::consts::PI;
    let psi_l_last = psi[nb - 1].block(0, 0, h.block_size(nb - 1), ml);
    let g_psi = matmul(gamma_r, &psi_l_last);
    let transmission = matmul_h_n(&psi_l_last, &g_psi).trace().re;
    let mut al = Vec::with_capacity(h.dim());
    let mut ar = Vec::with_capacity(h.dim());
    let mut ldos = Vec::with_capacity(nb);
    for (i, psi_i) in psi.iter().enumerate().take(nb) {
        let mut slab_trace = 0.0;
        for r in 0..h.block_size(i) {
            let mut sl_sum = 0.0;
            let mut sr_sum = 0.0;
            for c in 0..nrhs {
                let v = psi_i[(r, c)].norm_sqr();
                if c < ml {
                    sl_sum += v;
                } else {
                    sr_sum += v;
                }
            }
            al.push(sl_sum);
            ar.push(sr_sum);
            slab_trace += sl_sum + sr_sum;
        }
        ldos.push(slab_trace / two_pi);
    }
    EnergyPointData {
        energy: e,
        transmission,
        ldos,
        spectral_left_diag: al,
        spectral_right_diag: ar,
        retries,
    }
}

/// One ballistic WF-Thomas transport solve at a potential (`k_y = 0`).
pub fn transport(
    t: &mut Tracer,
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    n_energy: usize,
) -> BallisticResult {
    t.span("transport", |t| {
        let ham = tr.hamiltonian();
        let h = t.span("hamiltonian", |_| {
            let pot: Vec<f64> = v_atoms.iter().map(|&v| -v).collect();
            ham.assemble(&pot, 0.0)
        });
        let ((h00_l, h01_l), (h00_r, h01_r)) = t.span("lead_blocks", |_| {
            let v_src = tr.slab_mean_potential(v_atoms, 0);
            let v_drn = tr.slab_mean_potential(v_atoms, tr.device.num_slabs - 1);
            (ham.lead_blocks(-v_src, 0.0), ham.lead_blocks(-v_drn, 0.0))
        });
        let window = t.span("window", |_| {
            let mus = [bias.mu_source, bias.mu_drain()];
            let mid_lo = tr.e_midgap - v_atoms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mid_hi = tr.e_midgap - v_atoms.iter().cloned().fold(f64::INFINITY, f64::min);
            let span = 30.0 * tr.kt;
            transport_window(
                &[(&h00_l, &h01_l), (&h00_r, &h01_r)],
                &mus,
                tr.kt,
                12.0,
                (
                    mid_lo.min(mus[0].min(mus[1]) - span),
                    mid_hi.max(mus[0].max(mus[1]) + span),
                ),
            )
        });
        let mut report = SweepReport::default();
        let mut kept = Vec::with_capacity(n_energy);
        let mut points = Vec::with_capacity(n_energy);
        for e in window.grid(n_energy) {
            let lead_l = (&h00_l, &h01_l);
            match energy_point(t, e, &h, lead_l, (&h00_r, &h01_r), Solver::Thomas) {
                Ok(p) => {
                    report.record_solved(p.retries);
                    kept.push(e);
                    points.push(p);
                }
                Err(err) => report.record_failed(e, err),
            }
        }
        t.span("integrate", |_| {
            integrate(tr, bias, v_atoms, &kept, points, &window, report)
        })
    })
}

/// Output of one traced SCF bias point.
pub struct ScfPoint {
    pub v_grid: Vec<f64>,
    pub current_ua: f64,
    pub iterations: usize,
}

/// One self-consistent bias point, warm-started from `v_init`.
pub fn scf_point(
    t: &mut Tracer,
    tr: &mut NanoTransistor,
    bias: &Bias,
    opts: &ScfOptions,
    v_init: Option<&[f64]>,
) -> ScfPoint {
    tr.set_gate(bias.v_gate);
    let kt = tr.kt;
    let rho_doping = t.span("grid_xfer", |_| {
        tr.poisson
            .grid
            .deposit(&tr.atom_positions, &tr.doping_per_atom)
    });
    let mut v_grid: Vec<f64> = match v_init {
        Some(v) => v.to_vec(),
        None => t.span("poisson", |_| tr.poisson.solve_linear(&rho_doping)),
    };
    let mut last: Option<BallisticResult> = None;
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    for outer in 1..=opts.max_iter {
        iters = outer;
        let done = t.span("scf_iter", |t| {
            t.count("core.scf.iters", 1.0);
            let v_atoms = t.span("grid_xfer", |_| {
                tr.poisson.grid.sample(&v_grid, &tr.atom_positions)
            });
            let result = transport(t, tr, &v_atoms, bias, opts.n_energy);
            let (rho_n, rho_p) = t.span("grid_xfer", |_| {
                let g = &tr.poisson.grid;
                (
                    g.deposit(&tr.atom_positions, &result.electron_density),
                    g.deposit(&tr.atom_positions, &result.hole_density),
                )
            });
            let v_old = v_grid.clone();
            let sol = t.span("poisson", |_| {
                if opts.predictor {
                    tr.poisson.solve_nonlinear(
                        |node, v| {
                            let x = ((v - v_old[node]) / kt).clamp(-25.0, 25.0);
                            let n = rho_n[node] * x.exp();
                            let p = rho_p[node] * (-x).exp();
                            let rho = p - n + rho_doping[node];
                            let drho = -(n + p) / kt;
                            (rho, drho.min(0.0))
                        },
                        Some(&v_old),
                        1e-6,
                        60,
                    )
                } else {
                    tr.poisson.solve_nonlinear(
                        |node, _v| (rho_p[node] - rho_n[node] + rho_doping[node], 0.0),
                        Some(&v_old),
                        1e-6,
                        1,
                    )
                }
            });
            t.count("poisson.newton_iters", sol.iterations as f64);
            residual = 0.0;
            for (vg, &vs) in v_grid.iter_mut().zip(&sol.v) {
                let d = opts.mixing * (vs - *vg);
                *vg += d;
                residual = residual.max(d.abs());
            }
            last = Some(result);
            residual < opts.tol_v
        });
        if done {
            break;
        }
    }
    let transport = match last {
        Some(r) if residual < opts.tol_v => r,
        _ => {
            let v_atoms = t.span("grid_xfer", |_| {
                tr.poisson.grid.sample(&v_grid, &tr.atom_positions)
            });
            transport(t, tr, &v_atoms, bias, opts.n_energy)
        }
    };
    ScfPoint {
        v_grid,
        current_ua: transport.current_ua,
        iterations: iters,
    }
}
