//! `utb-kmesh`: frozen-field UTB sweep over a k × E mesh on two
//! threads-as-ranks with the whole-curve dynamic dataflow
//! (`parallel_transmission_k`, `LevelConfig{1, 1, 2, 1}`).
//!
//! The traced run times each rank and every `system_of` call, reads the
//! `SchedStats` and `CommStats`, and takes the kernel split from a serial
//! replay of the same (k, E) grid through the single-rank SplitSolve unit
//! solve — the same pure function the ranks run, so the replay's T(E)
//! must equal the parallel result exactly.

use crate::kernel::{energy_point, Solver};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::Run;
use omen_core::ballistic::momentum_grid;
use omen_core::parallel::{
    frozen_system, parallel_transmission_k, split_levels, LevelConfig, TransmissionSweep,
};
use omen_core::{Geometry, NanoTransistor, SchedOptions, Schedule, TransistorSpec};
use omen_linalg::ZMat;
use omen_num::linspace;
use omen_parsim::{run_ranks, Comm, CommStats, RunOutput};
use omen_sparse::BlockTridiag;
use omen_tb::bands::{subband_edges, wire_bands};
use omen_tb::Material;
use std::cell::RefCell;
use std::time::Instant;

const N_K: usize = 4;
const N_E: usize = 16;
const RANKS: usize = 2;
const CFG: LevelConfig = LevelConfig {
    bias: 1,
    momentum: 1,
    energy: 2,
    spatial: 1,
};
/// Energy points checked against the serial replay in untraced runs (all
/// k-points of each, since the sweep returns the k-weighted T(E)).
const CHECKED_ENERGIES: usize = 2;

/// The device, its frozen potential, and the sweep grids.
struct Mesh {
    tr: NanoTransistor,
    v_atoms: Vec<f64>,
    kys: Vec<(f64, f64)>,
    energies: Vec<f64>,
}

fn build(seed: u64) -> Mesh {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SiSp3s, 1.0, 6);
    spec.geometry = Geometry::Utb { cells: 1, h: 1.0 };
    let tr = spec.build();
    // The seed sets the frozen channel (gate-region) potential.
    let v_ch = 0.01 * (seed % 9) as f64;
    let (lo, hi) = (
        tr.spec.source_slabs,
        tr.spec.num_slabs - tr.spec.drain_slabs,
    );
    let v_atoms: Vec<f64> = tr
        .device
        .atoms
        .iter()
        .map(|a| {
            if a.slab >= lo && a.slab < hi {
                v_ch
            } else {
                0.0
            }
        })
        .collect();
    // Energies from just below the lead's conduction-band edge at k = 0.
    let (_, h00, h01) = frozen_system(&tr, &v_atoms, 0.0);
    let thetas = linspace(0.0, std::f64::consts::PI, 17);
    let e_c = subband_edges(&wire_bands(&h00, &h01, &thetas))
        .into_iter()
        .filter(|&e| e > tr.e_midgap)
        .fold(f64::INFINITY, f64::min);
    let energies = linspace(e_c - 0.05, e_c + 0.4, N_E);
    let kys = momentum_grid(&tr, N_K);
    Mesh {
        tr,
        v_atoms,
        kys,
        energies,
    }
}

/// Per-rank output of one parallel sweep with its rank and `system_of`
/// timestamps.
type RankOut = (TransmissionSweep, Instant, Instant, Vec<(Instant, Instant)>);

fn sweep(m: &Mesh) -> RunOutput<RankOut> {
    run_ranks(RANKS, |ctx| {
        let calls = RefCell::new(Vec::new());
        let t0 = Instant::now();
        let comms = split_levels(ctx, &CFG)?;
        let s = parallel_transmission_k(
            &comms,
            &CFG,
            |ky| {
                let a = Instant::now();
                let sys = frozen_system(&m.tr, &m.v_atoms, ky);
                calls.borrow_mut().push((a, Instant::now()));
                sys
            },
            &m.kys,
            &m.energies,
            Schedule::Dynamic(SchedOptions::default()),
        )?;
        Ok((s, t0, Instant::now(), calls.into_inner()))
    })
    .flattened()
}

/// A checked sweep: rank 0's output, the summed comm counters, the other
/// ranks' outputs.
type Checked = Option<(RankOut, CommStats, Vec<RankOut>)>;

/// Checks one parallel sweep; returns (attempted, failed) units and the
/// checked sweep.
fn check_sweep(out: &mut Outcome, run: RunOutput<RankOut>) -> (u64, u64, Checked) {
    let units = (N_K * N_E) as u64;
    let stats = run.total_stats();
    let mut ranks = Vec::new();
    for r in run.results {
        match r {
            Ok(v) => ranks.push(v),
            Err(e) => {
                out.check(false, format!("rank failed: {e}"));
                return (units, units, None);
            }
        }
    }
    let first = &ranks[0].0;
    let solved = first.report.solved as u64;
    out.check(
        solved == units && first.report.failed.is_empty(),
        format!(
            "report.solved {solved} of {units} (k, E) units, {} failed",
            first.report.failed.len()
        ),
    );
    for r in &ranks[1..] {
        out.check(
            r.0.transmission == first.transmission,
            "every rank returns the same T(E)",
        );
    }
    let failed = units.saturating_sub(solved);
    let head = ranks.remove(0);
    (units, failed, Some((head, stats, ranks)))
}

/// Serial replay of the (k, E) units at energy indices `which` on one
/// rank: returns the k-weighted T at those energies and the tracer.
fn replay(m: &Mesh, which: &[usize], origin: Instant) -> (Vec<f64>, Tracer) {
    let out = run_ranks(1, |ctx| {
        let comm = Comm::world(ctx);
        let mut t = Tracer::new(origin);
        let mut acc = vec![0.0; which.len()];
        let mut failures = Vec::new();
        t.span("replay", |t| {
            for &(ky, w) in &m.kys {
                t.span("transport", |t| {
                    let (h, h00, h01) = system(t, &m.tr, &m.v_atoms, ky);
                    for (slot, &ie) in which.iter().enumerate() {
                        let e = m.energies[ie];
                        match energy_point(
                            t,
                            e,
                            &h,
                            (&h00, &h01),
                            (&h00, &h01),
                            Solver::Split(&comm),
                        ) {
                            Ok(d) => acc[slot] += w * d.transmission,
                            Err(err) => failures.push(err),
                        }
                    }
                });
            }
        });
        (acc, t, failures)
    });
    let (acc, t, failures) = out
        .results
        .into_iter()
        .next()
        .expect("one rank")
        .unwrap_or_else(|e| (vec![f64::NAN; which.len()], Tracer::new(origin), vec![e]));
    let acc = if failures.is_empty() {
        acc
    } else {
        vec![f64::NAN; which.len()]
    };
    (acc, t)
}

/// `frozen_system`, split into its Hamiltonian and lead-block layers.
fn system(
    t: &mut Tracer,
    tr: &NanoTransistor,
    v_atoms: &[f64],
    ky: f64,
) -> (BlockTridiag, ZMat, ZMat) {
    let ham = tr.hamiltonian();
    let h = t.span("hamiltonian", |_| {
        let pot: Vec<f64> = v_atoms.iter().map(|&v| -v).collect();
        ham.assemble(&pot, ky)
    });
    let (h00, h01) = t.span("lead_blocks", |_| {
        ham.lead_blocks(-tr.slab_mean_potential(v_atoms, 0), ky)
    });
    (h, h00, h01)
}

fn check_replay(out: &mut Outcome, parallel: &[f64], which: &[usize], serial: &[f64]) {
    for (slot, &ie) in which.iter().enumerate() {
        out.check(
            parallel[ie] == serial[slot],
            format!(
                "T(E[{ie}]) parallel {:e} vs serial replay {:e}",
                parallel[ie], serial[slot]
            ),
        );
    }
}

pub fn run(r: &Run, out: &mut Outcome) -> Vec<Tracer> {
    // Set-up is timed only before the first sweep: a device build between
    // sweeps would hold two meshes at once and inflate peak_rss_mb.
    let (m, setup) = crate::setup(9, || build(r.seed), drop);
    out.note(format!(
        "UTB SiSp3s: {} atoms, {} slabs of {} orbitals, {} k x {} E on {RANKS} ranks \
         ({CFG:?}), dynamic whole-curve schedule",
        m.tr.device.num_atoms(),
        m.tr.device.num_slabs,
        {
            let offsets = m.tr.device.slab_offsets();
            (offsets[1] - offsets[0]) * m.tr.hamiltonian().orbitals_per_atom()
        },
        m.kys.len(),
        m.energies.len()
    ));

    if !r.trace {
        let t_run = Instant::now();
        let mut walls = Vec::new();
        let mut last: Option<Vec<f64>> = None;
        loop {
            let t0 = Instant::now();
            let run = sweep(&m);
            walls.push(t0.elapsed().as_secs_f64());
            let (att, fail, head) = check_sweep(out, run);
            out.attempted += att;
            out.failed += fail;
            if let Some(((s, ..), ..)) = head {
                if let Some(prev) = &last {
                    out.check(*prev == s.transmission, "repeated sweeps agree exactly");
                }
                last = Some(s.transmission);
            }
            if t_run.elapsed().as_secs_f64() >= r.seconds {
                break;
            }
        }
        // Output check against a serial replay of a seeded energy subset.
        let mut which: Vec<usize> = (0..CHECKED_ENERGIES)
            .map(|i| (r.seed as usize * 7 + i * 5) % N_E)
            .collect();
        which.dedup();
        let (serial, _) = replay(&m, &which, r.origin);
        if let Some(par) = &last {
            check_replay(out, par, &which, &serial);
        }
        let busy: f64 = walls.iter().sum();
        crate::end_to_end(out, &setup, &walls, &walls, walls.len() as f64 / busy);
        out.note(format!(
            "{} sweeps; a job is one k x E sweep; sweep walls {walls:.3?} s; serial replay \
             checked at energies {which:?}",
            walls.len()
        ));
        return Vec::new();
    }

    // Traced run: one untraced sweep, one timed sweep, a full serial replay.
    let t0 = Instant::now();
    let run_u = sweep(&m);
    let wall_u = t0.elapsed().as_secs_f64();
    let (att, fail, _) = check_sweep(out, run_u);
    out.attempted += att;
    out.failed += fail;

    let f0 = omen_linalg::flop_count();
    let t1 = Instant::now();
    let run_t = sweep(&m);
    let wall_t = t1.elapsed().as_secs_f64();
    let sweep_flops = omen_linalg::flop_count().wrapping_sub(f0);
    let (_, _, head) = check_sweep(out, run_t);
    let Some((rank0, comm_stats, rest)) = head else {
        return Vec::new();
    };

    let all: Vec<usize> = (0..N_E).collect();
    let (serial, replay_t) = replay(&m, &all, r.origin);
    check_replay(out, &rank0.0.transmission, &all, &serial);

    let mut rank_t = Tracer::for_thread(r.origin, 0);
    let mut busy_wall = 0.0f64;
    for (rank, (_, a, b, calls)) in std::iter::once(&rank0).chain(&rest).enumerate() {
        let mut t = Tracer::for_thread(r.origin, rank);
        let id = t.record("rank", *a, *b, None);
        for &(s, e) in calls {
            t.record("system_of", s, e, Some(id));
        }
        busy_wall = busy_wall.max(b.duration_since(*a).as_secs_f64());
        rank_t.absorb(t);
    }

    let mut l = Layers::default();
    l.kernel(&replay_t);
    l.set("linalg.flops", sweep_flops as f64);
    l.set("parsim.messages", comm_stats.messages_sent as f64);
    l.set("parsim.bytes", comm_stats.bytes_sent as f64);
    l.set("parsim.collectives", comm_stats.collectives as f64);
    if let Some(st) = &rank0.0.sched {
        let reissued = (st.reissued_failed + st.reissued_straggler) as f64;
        l.set("sched.imbalance", st.imbalance());
        l.set(
            "sched.idle_s",
            RANKS as f64 * busy_wall - st.worker_busy_s.iter().sum::<f64>(),
        );
        l.set("sched.reissued", reissued);
        l.set("sched.coordinator_units", st.coordinator_units as f64);
        l.set(
            "sched.useful_ratio",
            st.units as f64 / (st.units as f64 + reissued),
        );
    } else {
        out.check(false, "dynamic sweep returned no SchedStats");
    }
    l.set("trace.overhead_s", wall_t - wall_u);
    l.emit(out);
    out.note(format!(
        "untraced sweep {wall_u:.3} s, timed sweep {wall_t:.3} s; system_of {:.3} s over {} \
         calls; linalg.flops is the process total of the timed sweep (2 ranks share one \
         counter); the kernel split and linalg.gflops come from the serial replay",
        rank_t.total_s("system_of"),
        rank_t.calls("system_of"),
    ));
    vec![replay_t, rank_t]
}
