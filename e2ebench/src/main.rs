//! End-to-end and per-layer benchmark of real omen device simulations.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload nw-idvg --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` times the workload with
//! tracing off and prints the end-to-end metrics; `--trace 1` runs it once
//! untraced and once traced and prints the per-layer metrics. Both check
//! the program's outputs. The last stdout line is the result object; the
//! full record (with provenance) goes to `e2ebench/out/`, and traced runs
//! also write their spans there as JSON lines. See `e2ebench/README.md`.

mod idvg;
mod kernel;
mod kmesh;
mod layers;
mod report;
mod serve_mix;
mod trace;

use report::{median, peak_rss_mb, tail, Outcome, Provenance};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time origin shared by every span of the run.
    pub origin: Instant,
}

const WORKLOADS: &[&str] = &["nw-idvg", "utb-kmesh", "serve-mix"];
const OUT_DIR: &str = "e2ebench/out";

/// Times `make` `reps` times and returns the last result with every
/// set-up time; earlier results go to `discard`, untimed.
pub fn setup<T>(
    reps: usize,
    mut make: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t0 = Instant::now();
        last = Some(std::hint::black_box(make()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Emits the end-to-end metrics of an untraced run. `setup` holds the
/// set-up times (`setup_s` is their median), `walls` are the
/// workload's unit-of-work times (a curve, a sweep, a window of served
/// jobs), `jobs` the per-job latencies in seconds.
pub fn end_to_end(out: &mut Outcome, setup: &[f64], walls: &[f64], jobs: &[f64], jobs_per_s: f64) {
    let (tail_s, pct, n) = tail(jobs);
    out.metric("setup_s", median(setup), "s");
    out.metric("wall_s", median(walls), "s");
    out.metric("jobs_per_s", jobs_per_s, "1/s");
    out.metric("job_p50_ms", 1e3 * median(jobs), "ms");
    out.metric("job_tail_ms", 1e3 * tail_s, "ms");
    let ok = 1.0 - out.failed as f64 / (out.attempted.max(1)) as f64;
    out.metric("ok_frac", ok, "ratio");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note(format!(
        "job_tail_ms is p{pct:.1} of {n} job latencies{}; failed_frac = {:.6} ({} of {} \
         operations)",
        if n <= 20 {
            " (median: fewer than 21 samples)"
        } else {
            ""
        },
        1.0 - ok,
        out.failed,
        out.attempted
    ));
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         e2ebench --emit-reference   (prints reference/nw-idvg.txt)",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--emit-reference") {
        idvg::emit_reference();
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }

    let run = Run {
        seed,
        seconds,
        trace,
        origin: Instant::now(),
    };
    let prov = Provenance::collect(&workload, seed, seconds, trace);
    let mut out = Outcome::new();
    let tracers = match workload.as_str() {
        "nw-idvg" => idvg::run(&run, &mut out),
        "utb-kmesh" => kmesh::run(&run, &mut out),
        _ => serve_mix::run(&run, &mut out),
    };
    if out.attempted == 0 {
        out.check(false, "no operation was attempted");
        out.attempted = 1;
    }

    let stem = format!("{workload}-seed{seed}-trace{}", trace as u8);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        if !tracers.is_empty() {
            let mut all = trace::Tracer::new(run.origin);
            for t in tracers {
                all.absorb(t);
            }
            let run_id = format!("{workload}/seed{seed}");
            all.write_jsonl(
                &Path::new(OUT_DIR).join(format!("{stem}.spans.jsonl")),
                &run_id,
            )?;
        }
        report::write_record(
            &Path::new(OUT_DIR).join(format!("{stem}.json")),
            &prov,
            &out,
        )
    });
    if let Err(e) = written {
        out.check(false, format!("cannot write {OUT_DIR}: {e}"));
    }

    println!("provenance {}", prov.json());
    for n in &out.notes {
        println!("note: {n}");
    }
    for m in &out.metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
