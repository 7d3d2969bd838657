//! `serve-mix`: an in-process `omen-serve` server with the production
//! solver executor, loaded by a closed loop of two clients (one connection
//! each) submitting small frozen-mode nanowire jobs. A quarter of the
//! submissions repeat an earlier request, so in-flight dedupe and the
//! result cache answer them; the rest are fresh solves.
//!
//! Each client sends its next request as soon as the previous answer
//! arrived, taking the next index of one shared request sequence, for the
//! whole run length. The traced run wraps the production executor in a
//! timing executor (queue wait, execution, delivery) and replays fresh jobs
//! through the traced kernel pipeline.

use crate::kernel::transport;
use crate::layers::Layers;
use crate::report::{median, Outcome, Rng};
use crate::trace::Tracer;
use crate::Run;
use omen_core::Bias;
use omen_serve::protocol::{decode_result, Disposition, StatsSnapshot};
use omen_serve::request::SweepRequest;
use omen_serve::server::{solver_executor, Executor, Server, ServerConfig};
use omen_serve::Client;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CLIENTS: usize = 2;
/// Requests are drawn in blocks of this many submissions, and `wall_s` is
/// the median time the server takes to answer this many in a row.
const BLOCK: usize = 8;
/// Server starts timed before the run; `setup_s` is their median.
const SETUP_REPS: usize = 2000;
/// Fresh jobs the traced run replays through the kernel pipeline.
const REPLAYED_JOBS: usize = 4;

/// The seeded request sequence, in blocks of [`BLOCK`]. Each block
/// holds two repeats at seeded positions, a quarter of its submissions:
/// one repeats the submission just before it, which the other client is
/// usually still solving (an in-flight dedupe join), and one repeats an
/// entry at least two places earlier (usually a cache hit). The other
/// entries are fresh requests.
struct Requests {
    rng: Rng,
    texts: Vec<String>,
    seen: std::collections::HashSet<(u64, u64)>,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        Requests {
            rng: Rng::new(seed),
            texts: Vec::new(),
            seen: Default::default(),
        }
    }

    fn get(&mut self, i: usize) -> String {
        let round = BLOCK as u64;
        while self.texts.len() <= i {
            let follow = 1 + self.rng.below(round - 1) as usize;
            let mut earlier = follow;
            while earlier == follow {
                earlier = 2 + self.rng.below(round - 2) as usize;
            }
            for p in 0..BLOCK {
                let n = self.texts.len();
                let text = if p == follow {
                    self.texts[n - 1].clone()
                } else if p == earlier {
                    self.texts[self.rng.below(n as u64 - 1) as usize].clone()
                } else {
                    self.fresh()
                };
                self.texts.push(text);
            }
        }
        self.texts[i].clone()
    }

    /// A request not drawn before: a 2-point frozen gate sweep over 7
    /// energies at a seeded gate window and drain bias.
    fn fresh(&mut self) -> String {
        loop {
            let vg_mv = self.rng.below(400);
            let vds_mv = self.rng.below(200);
            if self.seen.insert((vg_mv, vds_mv)) {
                let vg = -0.3 + vg_mv as f64 * 1e-3;
                return format!(
                    "mode = frozen\nn_energy = 7\nvg_points = 2\nvg_start = {vg:.3}\n\
                     vg_stop = {:.3}\nvds = {:.3}\n",
                    vg + 0.1,
                    0.1 + vds_mv as f64 * 1e-3
                );
            }
        }
    }
}

/// One finished submission as the client saw it.
struct Job {
    text: String,
    submit: Instant,
    done: Instant,
    outcome: Result<(Disposition, u128, Vec<u8>), String>,
}

/// Timestamps of one executor call, keyed by the request's cache key.
type ExecLog = Arc<Mutex<Vec<(u128, Instant, Instant)>>>;

fn timing_executor(log: ExecLog) -> Executor {
    let inner = solver_executor();
    Arc::new(move |req, progress| {
        let t0 = Instant::now();
        let r = inner(req, progress);
        let key = req.cache_key();
        log.lock()
            .expect("exec log lock: no panics while held")
            .push((key, t0, Instant::now()));
        r
    })
}

/// Starts a server and waits until a client's ping is answered.
fn start(executor: Executor) -> Result<(Server, Client), String> {
    let server = Server::start_with_executor("127.0.0.1:0", ServerConfig::default(), executor)
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.to_string())?;
    Ok((server, client))
}

/// Drains and stops a server that has no work left.
fn stop((server, client): (Server, Client)) {
    drop(client);
    server.shutdown_and_join();
}

/// Result of one closed-loop phase.
struct Phase {
    /// Every finished submission, in order of completion.
    jobs: Vec<Job>,
    /// When the clients started submitting.
    start: Instant,
    /// Per client: jobs answered and seconds from its first submission to
    /// its last answer.
    clients: Vec<(usize, f64)>,
    stats: StatsSnapshot,
}

impl Phase {
    /// Jobs answered per second, summed over the clients, each over the
    /// time it had a job outstanding.
    fn jobs_per_s(&self) -> f64 {
        self.clients.iter().map(|&(n, span)| n as f64 / span).sum()
    }

    /// Times to answer [`BLOCK`] submissions in a row, from the start of
    /// the run (the whole run when it answered fewer).
    fn block_walls(&self) -> Vec<f64> {
        let mut last = self.start;
        let mut walls: Vec<f64> = self
            .jobs
            .chunks_exact(BLOCK)
            .map(|c| {
                let done = c[BLOCK - 1].done;
                let wall = done.duration_since(last).as_secs_f64();
                last = done;
                wall
            })
            .collect();
        if let (true, Some(j)) = (walls.is_empty(), self.jobs.last()) {
            walls.push(j.done.duration_since(self.start).as_secs_f64());
        }
        walls
    }
}

/// Runs the closed loop for `seconds` against `server`; `first` is an
/// already connected client reused as client 0. Each client takes the next
/// request index from a shared counter until the run length has passed.
fn phase(server: Server, first: Client, seed: u64, seconds: f64) -> Result<Phase, String> {
    let addr = server.addr().to_string();
    let mut clients = vec![first];
    while clients.len() < CLIENTS {
        clients.push(Client::connect(&addr).map_err(|e| e.to_string())?);
    }
    let requests = Mutex::new(Requests::new(seed));
    let next = AtomicUsize::new(0);
    let began = Instant::now();
    let per_client: Vec<Vec<Job>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (next, requests) = (&next, &requests);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while began.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let text = requests
                            .lock()
                            .expect("request generator lock: no panics while held")
                            .get(i);
                        let submit = Instant::now();
                        let outcome = c
                            .submit_and_wait(&text)
                            .map(|o| (o.disposition, o.cache_key, o.payload))
                            .map_err(|e| e.to_string());
                        mine.push(Job {
                            text,
                            submit,
                            done: Instant::now(),
                            outcome,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let clients_busy = per_client
        .iter()
        .filter_map(|js| {
            let (a, b) = (js.first()?, js.last()?);
            Some((js.len(), b.done.duration_since(a.submit).as_secs_f64()))
        })
        .collect();
    let mut jobs: Vec<Job> = per_client.into_iter().flatten().collect();
    jobs.sort_by_key(|j| j.done);
    let stats = server.stats();
    drop(clients);
    server.shutdown_and_join();
    Ok(Phase {
        jobs,
        start: began,
        clients: clients_busy,
        stats,
    })
}

/// Output checks; returns (attempted, failed) jobs.
fn check_phase(out: &mut Outcome, p: &Phase) -> (u64, u64) {
    let mut failed = 0u64;
    let mut first: HashMap<&str, &[u8]> = HashMap::new();
    for j in &p.jobs {
        let ok = match &j.outcome {
            Ok((_, _, payload)) => match decode_result(payload) {
                Ok(res) => {
                    let clean = res.failed == 0
                        && res.points.len() == 2
                        && res.points.iter().all(|q| q.2.is_finite());
                    let same =
                        *first.entry(j.text.as_str()).or_insert(payload) == payload.as_slice();
                    out.check(
                        same,
                        "a repeated request must get the byte-identical answer",
                    );
                    clean && same
                }
                Err(e) => {
                    out.check(false, format!("undecodable result: {e}"));
                    false
                }
            },
            Err(e) => {
                out.check(false, format!("job failed: {e}"));
                false
            }
        };
        if !ok {
            out.check(false, format!("job not Ok: {}", j.text.replace('\n', "; ")));
        }
        failed += u64::from(!ok);
    }
    let distinct = p
        .jobs
        .iter()
        .map(|j| j.text.as_str())
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    out.check(
        p.stats.solves_started == distinct,
        format!(
            "solves_started {} must equal the {distinct} distinct requests",
            p.stats.solves_started
        ),
    );
    (p.jobs.len() as u64, failed)
}

fn latencies(p: &Phase) -> Vec<f64> {
    p.jobs
        .iter()
        .map(|j| j.done.duration_since(j.submit).as_secs_f64())
        .collect()
}

pub fn run(r: &Run, out: &mut Outcome) -> Vec<Tracer> {
    // Set-up: server start until a ping is answered, several times; the
    // last server serves the run.
    let (started, setup) = crate::setup(
        SETUP_REPS,
        || start(solver_executor()),
        |old| {
            if let Ok(sc) = old {
                stop(sc);
            }
        },
    );
    let untraced = match started.and_then(|(s, c)| phase(s, c, r.seed, r.seconds)) {
        Ok(p) => p,
        Err(e) => {
            out.check(false, format!("server start or closed loop: {e}"));
            out.attempted = 1;
            out.failed = 1;
            return Vec::new();
        }
    };
    let (att, fail) = check_phase(out, &untraced);
    out.attempted += att;
    out.failed += fail;
    let fresh = untraced
        .jobs
        .iter()
        .filter(|j| matches!(j.outcome, Ok((Disposition::Fresh, ..))))
        .count();
    out.note(format!(
        "{} jobs ({fresh} fresh); closed loop, {CLIENTS} clients; wall_s is the median time \
         to answer {BLOCK} submissions in a row; stats {:?}",
        untraced.jobs.len(),
        untraced.stats
    ));

    if !r.trace {
        let lat = latencies(&untraced);
        crate::end_to_end(
            out,
            &setup,
            &untraced.block_walls(),
            &lat,
            untraced.jobs_per_s(),
        );
        return Vec::new();
    }

    // Traced phase: same request sequence against a fresh server whose
    // executor is timed.
    let log: ExecLog = Arc::default();
    let traced = match start(timing_executor(log.clone()))
        .and_then(|(s, c)| phase(s, c, r.seed, r.seconds))
    {
        Ok(p) => p,
        Err(e) => {
            out.check(false, format!("traced closed loop: {e}"));
            return Vec::new();
        }
    };
    let (att, fail) = check_phase(out, &traced);
    out.attempted += att;
    out.failed += fail;
    let execs: HashMap<u128, (Instant, Instant)> = log
        .lock()
        .expect("exec log lock: no panics while held")
        .iter()
        .map(|&(k, a, b)| (k, (a, b)))
        .collect();
    let mut st = Tracer::for_thread(r.origin, 0);
    let (mut waits, mut deliveries) = (Vec::new(), Vec::new());
    for j in &traced.jobs {
        let id = st.record("job", j.submit, j.done, None);
        if let Ok((Disposition::Fresh, key, _)) = &j.outcome {
            if let Some(&(a, b)) = execs.get(key) {
                st.record("queue_wait", j.submit, a, Some(id));
                st.record("exec", a, b, Some(id));
                st.record("delivery", b, j.done, Some(id));
                waits.push(a.saturating_duration_since(j.submit).as_secs_f64());
                deliveries.push(j.done.saturating_duration_since(b).as_secs_f64());
            }
        }
    }

    // Kernel split: serial replay of the first fresh jobs, which must
    // reproduce the served currents bit for bit.
    let mut kt = Tracer::new(r.origin);
    let replayed: Vec<&Job> = traced
        .jobs
        .iter()
        .filter(|j| matches!(j.outcome, Ok((Disposition::Fresh, ..))))
        .take(REPLAYED_JOBS)
        .collect();
    kt.span("replay", |t| {
        for j in &replayed {
            let served = match &j.outcome {
                Ok((_, _, payload)) => decode_result(payload).ok(),
                Err(_) => None,
            };
            let currents = t.span("job", |t| replay_job(t, &j.text));
            let same = match (&served, &currents) {
                (Some(s), Ok(c)) => {
                    s.points.len() == c.len()
                        && s.points
                            .iter()
                            .zip(c)
                            .all(|(p, q)| p.2.to_bits() == q.to_bits())
                }
                _ => false,
            };
            out.check(
                same,
                format!(
                    "replayed currents {currents:?} vs served {:?}",
                    served.map(|s| s.points)
                ),
            );
        }
    });

    let s = &traced.stats;
    let mut l = Layers::default();
    l.kernel(&kt);
    l.set("linalg.flops", kt.flops("replay") as f64);
    l.set("serve.queue_wait_ms", 1e3 * median(&waits));
    l.set("serve.exec_s", st.total_s("exec"));
    l.set("serve.delivery_ms", 1e3 * median(&deliveries));
    l.set(
        "serve.reuse_rate",
        (s.cache_hits + s.dedupe_joins) as f64 / (s.jobs_accepted as f64).max(1.0),
    );
    l.set("serve.solves_started", s.solves_started as f64);
    l.set("serve.busy_rejections", s.busy_rejections as f64);
    l.set("serve.cache_evictions", s.cache_evictions as f64);
    l.set(
        "trace.overhead_s",
        median(&traced.block_walls()) - median(&untraced.block_walls()),
    );
    l.emit(out);
    out.note(format!(
        "traced phase {} jobs, {} fresh solves timed; kernel layers and linalg.flops come \
         from a serial replay of {} fresh jobs (concurrent workers share the process-global \
         flop counter, so the served run reports no per-job flops)",
        traced.jobs.len(),
        waits.len(),
        replayed.len()
    ));
    st.absorb(kt);
    vec![st]
}

/// Replays one frozen-mode request through the traced pipeline, as the
/// production executor runs it: device build, then per gate point the
/// frozen channel potential and one WF-Thomas transport solve.
fn replay_job(t: &mut Tracer, text: &str) -> Result<Vec<f64>, String> {
    let req = SweepRequest::parse(text).map_err(|e| e.to_string())?;
    let spec = req.device_spec().map_err(|e| e.to_string())?;
    let tr = t.span("device", |_| spec.build());
    let (lo, hi) = (
        tr.spec.source_slabs,
        tr.spec.num_slabs - tr.spec.drain_slabs,
    );
    Ok(req
        .v_gates()
        .into_iter()
        .map(|vg| {
            t.span("bias", |t| {
                let v_atoms: Vec<f64> = tr
                    .device
                    .atoms
                    .iter()
                    .map(|a| if a.slab >= lo && a.slab < hi { vg } else { 0.0 })
                    .collect();
                let bias = Bias {
                    v_gate: vg,
                    v_ds: req.vds,
                    mu_source: req.mu_source,
                };
                transport(t, &tr, &v_atoms, &bias, req.n_energy).current_ua
            })
        })
        .collect())
}
