//! The served-session side of the benchmark: set-up (server, cache,
//! client preparation, bank), the closed loops and the open loop.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use haac_runtime::{OtMode, ReorderKind, RuntimeError, SessionConfig, SessionReport, TcpChannel};
use haac_server::client::{self, RetryPolicy};
use haac_server::{choose_ot_mode, choose_reorder, Server, ServerConfig, SessionRequest};
use haac_workloads::{build, Scale, Workload, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::cpu_seconds;
use crate::stats::{median, sorted};
use crate::trace::{SpanId, Tracer};

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

fn request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// A client's prepared workload: built circuit with reference outputs,
/// and its session config lowered with the server's policy schedule.
#[derive(Debug)]
pub struct Prepared {
    pub kind: WorkloadKind,
    pub scale: Scale,
    pub reorder: ReorderKind,
    pub ot_mode: OtMode,
    pub workload: Workload,
    pub config: SessionConfig,
}

impl Prepared {
    /// A warm request pinned to the schedule and OT mode this client
    /// prepared, which are the ones the server's policy would choose.
    pub fn request(&self, seed: u64) -> SessionRequest {
        SessionRequest::new(self.kind.name(), self.scale, seed)
            .with_reorder(self.reorder)
            .with_ot_mode(self.ot_mode)
    }

    pub fn ands(&self) -> u64 {
        self.workload.circuit.num_and_gates() as u64
    }
}

/// Builds and lowers one workload the way `client::prepare_with_reorder`
/// does, timing the two halves apart. Returns `(prepared, build_s,
/// plan_s)`.
pub fn prepare(
    kind: WorkloadKind,
    scale: Scale,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Prepared, f64, f64) {
    tracer.span("client.prepare", parent, None, |p| {
        let reorder = choose_reorder(kind);
        let t = Instant::now();
        let workload = tracer.span("workloads.build", p, None, |_| build(kind, scale));
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let config = tracer.span("lower.plan", p, None, |_| {
            SessionConfig::for_circuit_with(&workload.circuit, reorder)
        });
        let plan_s = t.elapsed().as_secs_f64();
        let ot_mode = choose_ot_mode(workload.circuit.evaluator_inputs());
        let config = config.with_ot_mode(ot_mode);
        (Prepared { kind, scale, reorder, ot_mode, workload, config }, build_s, plan_s)
    })
}

/// The server a workload runs against.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub workers: usize,
    /// Instances per key kept in the pre-garbled bank; 0 turns it off.
    pub bank_capacity: usize,
    pub tcp: bool,
    pub bank_seed: u64,
}

#[derive(Debug)]
pub struct Setup {
    pub server: Server,
    pub addr: Option<SocketAddr>,
    pub prepared: Vec<Arc<Prepared>>,
    pub setup_s: f64,
    /// Client build and lowering time summed over the kinds.
    pub build_s: f64,
    pub plan_s: f64,
}

/// From server construction until the first request can be sent: warm
/// every reachable cache key, prepare every client workload, and stock
/// the bank to capacity.
pub fn setup(
    kinds: &[WorkloadKind],
    scale: Scale,
    shape: Shape,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Setup {
    tracer.span("setup", parent, None, |p| {
        let start = Instant::now();
        let mut server = tracer.span("server.new", p, None, |_| {
            Server::new(ServerConfig {
                workers: shape.workers,
                bank_capacity: shape.bank_capacity,
                bank_seed: shape.bank_seed,
                ..ServerConfig::default()
            })
        });
        let addr = shape.tcp.then(|| {
            tracer.span("server.listen_tcp", p, None, |_| {
                server.listen_tcp("127.0.0.1:0").expect("bind a loopback port")
            })
        });
        for &kind in kinds {
            tracer.span("cache.get", p, None, |_| {
                server.cache().get(kind, scale, choose_reorder(kind));
            });
        }
        let (mut build_s, mut plan_s) = (0.0, 0.0);
        let prepared: Vec<Arc<Prepared>> = kinds
            .iter()
            .map(|&kind| {
                let (prepared, b, l) = prepare(kind, scale, tracer, p);
                build_s += b;
                plan_s += l;
                Arc::new(prepared)
            })
            .collect();
        if shape.bank_capacity > 0 {
            for &kind in kinds {
                // The producer may already be stocking resident keys;
                // prefill tops the shelf up to capacity either way.
                let key = (kind, scale, choose_reorder(kind));
                tracer.span("server.prefill", p, None, |_| {
                    server.prefill(key.0, key.1, key.2, shape.bank_capacity)
                });
                assert_eq!(
                    server.bank().depth_of(key),
                    shape.bank_capacity,
                    "{} shelf full",
                    kind.name()
                );
            }
        }
        let setup_s = start.elapsed().as_secs_f64();
        Setup { server, addr, prepared, setup_s, build_s, plan_s }
    })
}

/// Runs the set-up `reps` times, keeps the last, and returns it with
/// the median set-up, build and lowering seconds.
pub fn setup_median(
    reps: usize,
    kinds: &[WorkloadKind],
    scale: Scale,
    shape: Shape,
    tracer: &Tracer,
) -> (Setup, f64, f64, f64) {
    let mut times = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            old.server.shutdown();
        }
        let s = setup(kinds, scale, shape, tracer, None);
        times.push((s.setup_s, s.build_s, s.plan_s));
        kept = Some(s);
    }
    let pick = |f: fn(&(f64, f64, f64)) -> f64| median(&sorted(times.iter().map(f)));
    (kept.expect("at least one set-up"), pick(|t| t.0), pick(|t| t.1), pick(|t| t.2))
}

/// One served session as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Closed loop: connect to verified outputs. Open loop: due time to
    /// verified outputs.
    pub latency_ms: f64,
    /// Seconds from the phase's start to the session's start (closed
    /// loop) or due time (open loop).
    pub at_s: f64,
    pub ands: u64,
    pub ok: bool,
    pub error: Option<String>,
    pub report: Option<SessionReport>,
    pub cold: bool,
    pub retries: u64,
}

fn sample(
    p: &Prepared,
    at: Duration,
    latency: Duration,
    result: Result<SessionReport, RuntimeError>,
    cold: bool,
    retries: u64,
) -> Sample {
    // The client library already compares against the plaintext
    // reference; compare again here so no path can skip it.
    let result = result.and_then(|r| {
        if r.outputs == p.workload.expected && r.tables == p.ands() {
            Ok(r)
        } else {
            Err(RuntimeError::protocol(format!("{} outputs not verified", p.kind.name())))
        }
    });
    let ok = result.is_ok();
    Sample {
        latency_ms: latency.as_secs_f64() * 1e3,
        at_s: at.as_secs_f64(),
        ands: if ok { p.ands() } else { 0 },
        ok,
        error: result.as_ref().err().map(|e| e.to_string()),
        report: result.ok(),
        cold,
        retries,
    }
}

/// A timed phase: its sessions, wall time and process CPU time.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The time rates divide by. A closed loop takes the mean of the
    /// clients' own active times, so a client idling after the deadline
    /// while another finishes its last session does not count as lost
    /// throughput; an open-loop step takes its wall time.
    pub active_s: f64,
}

impl Phase {
    pub fn verified_ands(&self) -> u64 {
        self.samples.iter().map(|s| s.ands).sum()
    }
}

/// Closed loop over in-memory connections: client `c` cycles through
/// `cycles[c]`, starting each session only after the last one verified,
/// and starts no new session once `seconds` have passed (each client
/// runs at least one). Session seeds come from `seed`.
pub fn closed_loop(
    server: &Server,
    cycles: &[Vec<Arc<Prepared>>],
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Phase {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = cycles
            .iter()
            .enumerate()
            .map(|(c, cycle)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E_0000 + c as u64));
                    let mut out = Vec::new();
                    let begin = Instant::now();
                    for p in cycle.iter().cycle() {
                        let request = p.request(rng.gen());
                        let t = Instant::now();
                        let result = tracer.span(
                            "client.run_session_with",
                            parent,
                            Some(request_id()),
                            |_| {
                                let mut channel = server.connect();
                                client::run_session_with(
                                    &mut channel,
                                    &request,
                                    &p.workload,
                                    &p.config,
                                )
                            },
                        );
                        out.push(sample(p, t - start, t.elapsed(), result, false, 0));
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (out, begin.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let active_s = samples.iter().map(|(_, active)| active).sum::<f64>() / cycles.len() as f64;
    let samples = samples.into_iter().flat_map(|(s, _)| s).collect();
    Phase { samples, wall_s, cpu_s, active_s }
}

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct OpenRequest {
    /// Seconds after the step starts.
    pub due_s: f64,
    /// Index into the prepared kinds.
    pub kind: usize,
    /// A cold negotiated client that builds and lowers after the ack.
    pub cold: bool,
    pub seed: u64,
}

/// `rate × window_s` arrivals at seeded uniform times (Poisson arrivals
/// conditioned on their count), so every seed offers the same load.
/// Kinds come in blocks, each a seeded shuffle of all `kinds`, and one
/// request per block is a cold client. The cold kinds also come in
/// seeded shuffles, one kind per block, so every `kinds` blocks make
/// each kind cold once: the seed moves which request is which but not
/// the mix, and cold lowering, whose cost differs by kind, weighs the
/// same in every run.
pub fn open_schedule(rate: f64, window_s: f64, kinds: usize, rng: &mut StdRng) -> Vec<OpenRequest> {
    let n = (rate * window_s).round() as usize;
    let mut due: Vec<f64> =
        (0..n).map(|_| (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64 * window_s).collect();
    due.sort_by(f64::total_cmp);
    let shuffle = |v: &mut Vec<usize>, rng: &mut StdRng| {
        for j in (1..v.len()).rev() {
            v.swap(j, rng.gen_range(0..j + 1));
        }
    };
    let mut order: Vec<usize> = (0..kinds).collect();
    let mut cold_kinds: Vec<usize> = (0..kinds).collect();
    due.into_iter()
        .enumerate()
        .map(|(i, due_s)| {
            let block = i / kinds;
            if i.is_multiple_of(kinds) {
                if block.is_multiple_of(kinds) {
                    shuffle(&mut cold_kinds, rng);
                }
                shuffle(&mut order, rng);
            }
            let kind = order[i % kinds];
            OpenRequest { due_s, kind, cold: kind == cold_kinds[block % kinds], seed: rng.gen() }
        })
        .collect()
}

/// What one open-loop rate step saw.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    pub phase: Phase,
    /// Requests due in the step; every one is sent, however late.
    pub sent: u64,
    /// Start minus due time of each request, in schedule order.
    pub lateness_ms: Vec<f64>,
    /// The generator's own lag: start minus the later of due time and
    /// the moment a client thread was free to send.
    pub gen_lag_ms: Vec<f64>,
}

/// Sends `requests` over TCP loopback from `clients` threads. A request
/// waits in the generator while every client is busy, however long;
/// its latency counts from its due time.
pub fn open_step(
    addr: SocketAddr,
    prepared: &[Arc<Prepared>],
    requests: &[OpenRequest],
    rate: f64,
    clients: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Step {
    let next = AtomicUsize::new(0);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut ran: Vec<(usize, f64, f64, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(r) = requests.get(index) else { break };
                        let free_at = Instant::now();
                        let due = start + Duration::from_secs_f64(r.due_s);
                        if free_at < due {
                            std::thread::sleep(due - free_at);
                        }
                        let began = Instant::now();
                        let p = &prepared[r.kind];
                        let (result, retries) =
                            tracer.span("client.tcp_session", parent, Some(request_id()), |_| {
                                if r.cold {
                                    let request =
                                        SessionRequest::negotiated(p.kind.name(), p.scale, r.seed);
                                    let result = TcpChannel::connect(addr)
                                        .map_err(RuntimeError::from)
                                        .and_then(|mut ch| client::run_session(&mut ch, &request));
                                    (result, 0)
                                } else {
                                    let policy =
                                        RetryPolicy { seed: r.seed, ..RetryPolicy::default() };
                                    let (result, stats) = client::run_session_retrying(
                                        || TcpChannel::connect(addr).map_err(RuntimeError::from),
                                        &p.request(r.seed),
                                        &p.workload,
                                        &p.config,
                                        &policy,
                                        None,
                                    );
                                    (result, u64::from(stats.retries))
                                }
                            });
                        let lateness = began - due;
                        let lag = began.saturating_duration_since(due.max(free_at));
                        out.push((
                            index,
                            lateness.as_secs_f64() * 1e3,
                            lag.as_secs_f64() * 1e3,
                            sample(p, due - start, due.elapsed(), result, r.cold, retries),
                        ));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let mut step = Step { rate, sent: requests.len() as u64, ..Step::default() };
    ran.sort_by_key(|r| r.0);
    for (_, lateness, lag, sample) in ran {
        step.lateness_ms.push(lateness);
        step.gen_lag_ms.push(lag);
        step.phase.samples.push(sample);
    }
    step.phase.wall_s = wall_s;
    step.phase.cpu_s = cpu_s;
    step.phase.active_s = wall_s;
    step
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedule_fixes_load_and_mix_across_seeds() {
        for seed in [1, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let reqs = open_schedule(40.0, 6.4, 8, &mut rng);
            assert_eq!(reqs.len(), 256);
            assert!(reqs.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(reqs.iter().all(|r| (0.0..6.4).contains(&r.due_s)));
            for block in reqs.chunks(8) {
                let mut kinds: Vec<usize> = block.iter().map(|r| r.kind).collect();
                kinds.sort_unstable();
                assert_eq!(kinds, (0..8).collect::<Vec<_>>());
                assert_eq!(block.iter().filter(|r| r.cold).count(), 1);
            }
            for blocks in reqs.chunks(64) {
                let mut cold: Vec<usize> =
                    blocks.iter().filter(|r| r.cold).map(|r| r.kind).collect();
                cold.sort_unstable();
                assert_eq!(cold, (0..8).collect::<Vec<_>>());
            }
        }
        let draw = |seed| open_schedule(40.0, 4.0, 8, &mut StdRng::seed_from_u64(seed));
        let (a, b) = (draw(3), draw(3));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_s == y.due_s && x.kind == y.kind && x.seed == y.seed));
        assert!(a.iter().zip(&draw(4)).any(|(x, y)| x.due_s != y.due_s));
    }
}
