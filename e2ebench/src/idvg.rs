//! `nw-idvg`: warm-started self-consistent Id–Vg of the flagship nanowire
//! MOSFET (`examples/nanowire_mosfet`), shortened to a few gate points.
//!
//! The untraced run repeats the curve through `omen_core::iv::gate_sweep`
//! for the run length. The traced run drives the SCF loop itself from
//! public calls (see `kernel`) and must reproduce the untraced currents
//! bit for bit.

use crate::kernel::scf_point;
use crate::layers::Layers;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::Run;
use omen_core::iv::{gate_sweep_observed, on_off_ratio, IvPoint};
use omen_core::{Bias, Engine, NanoTransistor, ScfOptions, Schedule, TransistorSpec};
use omen_num::{BoundKind, DispatchLeg};
use omen_tb::Material;
use std::hint::black_box;
use std::time::Instant;

/// Gate voltages before the seed's offset: one point deep in the off state
/// and one at threshold, so the curve crosses the off→on transition. Two
/// points keep a curve short enough (6 SCF iterations) that a run times
/// several curves under the default thread policy.
const BASE_GRID: [f64; 2] = [-0.3, -0.1];
/// Seeds map onto this many gate offsets, 1 mV apart and centred on 0.
const OFFSETS: u64 = 9;
const V_DS: f64 = 0.2;
/// Set-ups timed in each window (before the first curve and after every
/// curve); `setup_s` is the median over all windows.
const SETUP_REPS: usize = 100;
const MU_SOURCE: f64 = -3.4;
/// Committed reference currents: `offset_mv v_gate current_ua` per line.
const REFERENCE: &str = include_str!("../reference/nw-idvg.txt");

fn spec() -> TransistorSpec {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 2e-3;
    spec.t_ox = 0.6;
    spec
}

fn opts() -> ScfOptions {
    ScfOptions {
        engine: Engine::WfThomas,
        n_energy: 31,
        tol_v: 3e-3,
        max_iter: 20,
        mixing: 0.8,
        predictor: true,
        n_k: 1,
        schedule: Schedule::Static,
    }
}

fn offset_mv(seed: u64) -> i64 {
    (seed % OFFSETS) as i64 - (OFFSETS / 2) as i64
}

fn gate_grid(offset_mv: i64) -> Vec<f64> {
    BASE_GRID
        .iter()
        .map(|v| v + offset_mv as f64 * 1e-3)
        .collect()
}

/// The set-up a user waits for before the first SCF iteration of a curve
/// at `v_gate`: the device build, the doping charge on the Poisson grid,
/// the linear Poisson solve that seeds the first bias point, and the
/// Hamiltonian and lead blocks at that potential. Returns the device.
fn prepare(spec: &TransistorSpec, v_gate: f64) -> NanoTransistor {
    let mut tr = spec.build();
    tr.set_gate(v_gate);
    let g = &tr.poisson.grid;
    let rho_doping = g.deposit(&tr.atom_positions, &tr.doping_per_atom);
    let v_grid = tr.poisson.solve_linear(&rho_doping);
    let v_atoms = g.sample(&v_grid, &tr.atom_positions);
    let pot: Vec<f64> = v_atoms.iter().map(|&v| -v).collect();
    let ham = tr.hamiltonian();
    let v_src = tr.slab_mean_potential(&v_atoms, 0);
    let v_drn = tr.slab_mean_potential(&v_atoms, tr.device.num_slabs - 1);
    black_box((
        ham.assemble(&pot, 0.0),
        ham.lead_blocks(-v_src, 0.0),
        ham.lead_blocks(-v_drn, 0.0),
    ));
    tr
}

/// One curve through the public driver, with the per-point count of
/// failed energy points.
fn curve(tr: &mut NanoTransistor, grid: &[f64]) -> (Vec<IvPoint>, Vec<usize>) {
    let mut failed = Vec::with_capacity(grid.len());
    let pts = gate_sweep_observed(tr, grid, V_DS, MU_SOURCE, &opts(), &mut |p| {
        failed.push(p.report.failed.len());
    });
    (pts, failed)
}

fn reference(offset: i64) -> Vec<f64> {
    REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3 && f[0].parse::<i64>().ok() == Some(offset))
                .then(|| f[2].parse::<f64>().ok())
                .flatten()
        })
        .collect()
}

/// Output checks of one curve; returns the number of failed bias points.
fn check_curve(out: &mut Outcome, pts: &[IvPoint], failed: &[usize], offset: i64) -> u64 {
    let mut bad = 0u64;
    let want = reference(offset);
    let rel = omen_num::tolerance::policy()
        .and_then(|p| p.bound("e2e.rgf_vs_wf", DispatchLeg::Cross, BoundKind::Relative));
    out.check(rel.is_ok(), format!("tolerance policy: {rel:?}"));
    let rel = rel.unwrap_or(0.0);
    out.check(
        want.len() == pts.len(),
        format!(
            "reference has {} currents for offset {offset} mV",
            want.len()
        ),
    );
    for (i, p) in pts.iter().enumerate() {
        let ok_ref = want
            .get(i)
            .is_some_and(|&w| (p.current_ua - w).abs() <= rel * w.abs());
        let ok = p.converged && failed.get(i) == Some(&0) && ok_ref;
        out.check(
            ok,
            format!(
                "V_G={:+.3}: converged={} failed energies={:?} I={:e} µA vs reference {:?}",
                p.v_gate,
                p.converged,
                failed.get(i),
                p.current_ua,
                want.get(i)
            ),
        );
        bad += u64::from(!ok);
    }
    let rising = pts.windows(2).all(|w| w[1].current_ua > w[0].current_ua);
    out.check(rising, "I_D must rise with V_G");
    let ratio = on_off_ratio(pts).unwrap_or(0.0);
    out.check(
        ratio > 10.0,
        format!("on/off ratio {ratio:.3e} must exceed 10"),
    );
    bad
}

pub fn run(r: &Run, out: &mut Outcome) -> Vec<Tracer> {
    let spec = spec();
    let offset = offset_mv(r.seed);
    let grid = gate_grid(offset);
    let prepare_first = || prepare(&spec, grid[0]);
    let (mut tr, mut setup) = crate::setup(SETUP_REPS, prepare_first, drop);
    out.note(format!(
        "gate grid {grid:?} V (seed offset {offset:+} mV), V_DS={V_DS}, mu_S={MU_SOURCE}"
    ));

    if !r.trace {
        let t_run = Instant::now();
        let mut walls = Vec::new();
        let mut first: Option<Vec<IvPoint>> = None;
        loop {
            let t0 = Instant::now();
            let (pts, failed) = curve(&mut tr, &grid);
            walls.push(t0.elapsed().as_secs_f64());
            out.attempted += pts.len() as u64;
            out.failed += check_curve(out, &pts, &failed, offset);
            match &first {
                None => first = Some(pts),
                Some(f) => out.check(
                    same_currents(f, &pts),
                    "repeated curves must be bit-identical",
                ),
            }
            // Set-up is timed again after every curve, outside the curve
            // walls: single-thread speed on the shared host this was sized
            // on switches between phases seconds long (1.4 vs 2.3 ms for
            // this set-up), so one window before the run reads whichever
            // phase the run began in.
            setup.extend(crate::setup(SETUP_REPS, prepare_first, drop).1);
            if t_run.elapsed().as_secs_f64() >= r.seconds {
                break;
            }
        }
        let busy: f64 = walls.iter().sum();
        crate::end_to_end(out, &setup, &walls, &walls, walls.len() as f64 / busy);
        let iters: Vec<usize> = first.iter().flatten().map(|p| p.scf_iterations).collect();
        out.note(format!(
            "{} curves of {} bias points; a job is one curve; curve walls {walls:.3?} s; SCF \
             iterations per point {iters:?}",
            walls.len(),
            grid.len()
        ));
        return Vec::new();
    }

    // Traced run: one untraced curve, then the traced replay of it.
    let t0 = Instant::now();
    let (pts, failed) = curve(&mut tr, &grid);
    let wall_u = t0.elapsed().as_secs_f64();
    out.attempted += pts.len() as u64;
    out.failed += check_curve(out, &pts, &failed, offset);

    let mut tr = spec.build();
    let mut t = Tracer::new(r.origin);
    let t1 = Instant::now();
    let replay: Vec<(f64, usize)> = t.span("curve", |t| {
        let mut warm: Option<Vec<f64>> = None;
        grid.iter()
            .map(|&vg| {
                t.span("bias", |t| {
                    let bias = Bias {
                        v_gate: vg,
                        v_ds: V_DS,
                        mu_source: MU_SOURCE,
                    };
                    let p = scf_point(t, &mut tr, &bias, &opts(), warm.as_deref());
                    warm = Some(p.v_grid);
                    (p.current_ua, p.iterations)
                })
            })
            .collect()
    });
    let wall_t = t1.elapsed().as_secs_f64();
    for (p, q) in pts.iter().zip(&replay) {
        out.check(
            p.current_ua.to_bits() == q.0.to_bits() && p.scf_iterations == q.1,
            format!(
                "traced replay V_G={:+.3}: I={:e} in {} iters vs untraced {:e} in {}",
                p.v_gate, q.0, q.1, p.current_ua, p.scf_iterations
            ),
        );
    }
    out.check(
        replay.len() == pts.len(),
        "traced replay covers every bias point",
    );

    let mut l = Layers::default();
    l.kernel(&t);
    l.set("core.scf.iters", t.counter("core.scf.iters"));
    l.set("poisson.solve.s", t.self_s("poisson"));
    l.set("poisson.newton_iters", t.counter("poisson.newton_iters"));
    l.set("poisson.grid_xfer.s", t.self_s("grid_xfer"));
    l.set("linalg.flops", t.flops("curve") as f64);
    l.set("trace.overhead_s", wall_t - wall_u);
    l.emit(out);
    out.note(format!(
        "untraced curve {wall_u:.3} s, traced replay {wall_t:.3} s; flops are exact \
         per-span counter deltas (single-threaded replay)"
    ));
    vec![t]
}

fn same_currents(a: &[IvPoint], b: &[IvPoint]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.current_ua.to_bits() == y.current_ua.to_bits())
}

/// Prints the reference table for every seed offset (regenerates
/// `reference/nw-idvg.txt`).
pub fn emit_reference() {
    println!("# nw-idvg reference currents: offset_mv v_gate current_ua");
    println!("# {}", omen_linalg::threads::dispatch_summary());
    let mut tr = spec().build();
    for k in 0..OFFSETS {
        let off = offset_mv(k);
        let (pts, _) = curve(&mut tr, &gate_grid(off));
        for p in pts {
            println!("{off} {:.6} {:?}", p.v_gate, p.current_ua);
        }
    }
}
