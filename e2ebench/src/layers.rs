//! The per-layer metric set. Every workload reports every metric; a layer
//! the workload bypasses reads 0 (a count of zero work).

use crate::report::Outcome;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Per-layer metrics in output order, with units. A `.s` suffix is the
/// layer's self time summed over its spans.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("negf.contacts.s", "s"),
    ("negf.contacts.calls", "count"),
    ("negf.contacts.retries", "count"),
    ("negf.contacts.share", "ratio"),
    ("wf.assembly.s", "s"),
    ("wf.solve.s", "s"),
    ("wf.observables.s", "s"),
    ("tb.assemble.s", "s"),
    ("tb.lead_blocks.s", "s"),
    ("core.window.s", "s"),
    ("core.integrate.s", "s"),
    ("core.scf.iters", "count"),
    ("poisson.solve.s", "s"),
    ("poisson.newton_iters", "count"),
    ("poisson.grid_xfer.s", "s"),
    ("linalg.flops", "flop"),
    ("linalg.gflops", "Gflop/s"),
    ("parsim.messages", "count"),
    ("parsim.bytes", "B"),
    ("parsim.collectives", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.idle_s", "s"),
    ("sched.reissued", "count"),
    ("sched.coordinator_units", "count"),
    ("sched.useful_ratio", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_s", "s"),
    ("serve.delivery_ms", "ms"),
    ("serve.reuse_rate", "ratio"),
    ("serve.solves_started", "count"),
    ("serve.busy_rejections", "count"),
    ("serve.cache_evictions", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Lowest `trace.coverage` a traced run accepts: the leaf layers must
/// account for at least this share of the traced wall time.
pub const MIN_COVERAGE: f64 = 0.95;

/// Collected per-layer values; unset layers read 0.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.0.
        self.0.insert(name, v + 0.0);
    }

    /// Fills the kernel layers from a serial replay tracer: the WF energy
    /// point split, the device/lead/window/integrate steps, flop rate and
    /// the replay's coverage.
    pub fn kernel(&mut self, t: &Tracer) {
        let contacts = t.self_s("contacts");
        self.set("negf.contacts.s", contacts);
        self.set("negf.contacts.calls", t.counter("negf.contacts.calls"));
        self.set("negf.contacts.retries", t.counter("negf.contacts.retries"));
        self.set("negf.contacts.share", contacts / t.total_s("transport"));
        self.set("wf.assembly.s", t.self_s("assembly"));
        self.set("wf.solve.s", t.self_s("solve"));
        self.set("wf.observables.s", t.self_s("observables"));
        self.set("tb.assemble.s", t.self_s("hamiltonian"));
        self.set("tb.lead_blocks.s", t.self_s("lead_blocks"));
        self.set("core.window.s", t.self_s("window"));
        self.set("core.integrate.s", t.self_s("integrate"));
        let ep_flops = t.flops("energy_point") as f64;
        self.set(
            "linalg.gflops",
            ep_flops / t.total_s("energy_point").max(f64::MIN_POSITIVE) / 1e9,
        );
        self.set("trace.coverage", t.coverage());
    }

    /// Emits every per-layer metric and checks the coverage floor.
    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        let cov = self.0.get("trace.coverage").copied().unwrap_or(0.0);
        out.check(
            (MIN_COVERAGE..=1.0 + 1e-9).contains(&cov),
            format!("trace.coverage {cov:.4} outside [{MIN_COVERAGE}, 1]: layers do not add up"),
        );
    }
}
