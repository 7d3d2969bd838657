//! Result records: statistics, provenance, and the one-line result object.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `v` (0.0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile of `v` with at least ten samples beyond it, as
/// `(value, percentile, samples)`. With twenty samples or fewer that
/// percentile is not above the median, so the median (percentile 50) is
/// reported instead: the maximum of a handful of samples is too noisy to
/// bound.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 20 {
        return (median(v), 50.0, n);
    }
    let idx = n - 11;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable notes (check failures, how a metric was taken).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }

    /// The one-line result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A JSON number with every digit Rust prints (non-finite becomes null).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Where and under which policy a record was taken. Records whose
/// `policy` differs must not be compared (`compare.py` refuses).
pub struct Provenance {
    pub fields: Vec<(&'static str, String)>,
}

impl Provenance {
    pub fn collect(workload: &str, seed: u64, seconds: f64, trace: bool) -> Provenance {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let simd = match omen_linalg::threads::simd_path() {
            omen_linalg::threads::SimdPath::Scalar => "scalar",
            omen_linalg::threads::SimdPath::Avx2Fma => "avx2+fma",
        };
        let threads = match omen_linalg::threads::thread_policy() {
            Ok(Some(n)) => format!("OMEN_THREADS={n}"),
            Ok(None) => "default".to_string(),
            Err(e) => format!("invalid: {e}"),
        };
        let policy = format!(
            "simd={simd} threads={threads} configured_threads={} nproc={nproc}",
            omen_linalg::threads::configured_threads()
        );
        let fields = vec![
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("seconds", format!("{seconds}")),
            ("trace", (trace as u8).to_string()),
            ("policy", policy),
            ("dispatch", omen_linalg::threads::dispatch_summary()),
            ("nproc", nproc.to_string()),
            ("commit", commit()),
        ];
        Provenance { fields }
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The git commit of the checkout, when the working directory is the top
/// of a git work tree.
fn commit() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match out
        .as_deref()
        .map(|s| s.lines().collect::<Vec<_>>())
        .as_deref()
    {
        Some([top, head]) if Path::new(top).canonicalize().ok() == here => head.to_string(),
        _ => "unknown (not a git work tree)".to_string(),
    }
}

/// Writes the full record (provenance, metrics, notes) as one JSON file.
pub fn write_record(path: &Path, prov: &Provenance, out: &Outcome) -> std::io::Result<()> {
    let notes: Vec<String> = out.notes.iter().map(|n| jstr(n)).collect();
    let text = format!(
        "{{\"provenance\": {}, \"result\": {}, \"notes\": [{}]}}\n",
        prov.json(),
        out.result_json(),
        notes.join(", ")
    );
    std::fs::write(path, text)
}

/// splitmix64: the benchmark's seeded generator (inputs only).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
