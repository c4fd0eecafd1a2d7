//! `perfbench`: the HAAC serving stack's benchmark.
//!
//! ```text
//! perfbench --workload <stream_bound|input_bound|open_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the real server, verifies every session
//! against the plaintext reference, and prints the environment, a
//! detail object, and finally one JSON result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics
//! from a traced run plus the ladder. Reports and spans are also
//! written under `perfbench/out/`. See `BENCHMARK.json` and
//! `perfbench/NOTES.md`.

mod env;
mod json;
mod layers;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use haac_gc::EnginePool;
use haac_runtime::SessionReport;
use haac_server::{Server, ServerConfig};
use haac_workloads::{Scale, WorkloadKind};

use json::Json;
use layers::{CircuitLadder, Micro};
use served::{Phase, Prepared, Sample, Setup, Shape, Step};
use stats::{median, sorted};
use trace::Tracer;

/// Set-ups per untraced run behind the `setup_s` median. A traced run
/// sets up once: it reports no `setup_s`, and its ladder needs the time.
const SETUP_REPS: usize = 3;
/// Pre-garbled instances per key on `open_mix`.
const BANK_CAPACITY: usize = 2;
/// `open_mix` offered rates (sessions/s), ascending, each with its share
/// of the run's seconds; the shares add up to 1. The nominal rate, whose
/// sessions give the end-to-end latency, rate and cost, gets the largest
/// share.
const OPEN_STEPS: [(f64, f64); 4] = [(25.0, 0.55), (50.0, 0.15), (100.0, 0.15), (200.0, 0.15)];
const NOMINAL_RATE: f64 = 25.0;
/// `open_mix`'s latency limit, which `slo_met_ratio` and
/// `max_rate_at_slo` use.
const SLO_MS: f64 = 200.0;
/// Past this age a traced run's ladder takes one repetition per rung,
/// which leaves a slow host room inside the run's time limit.
const LADDER_BEFORE: Duration = Duration::from_secs(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bench {
    StreamBound,
    InputBound,
    OpenMix,
}

impl Bench {
    fn parse(name: &str) -> Option<Bench> {
        match name {
            "stream_bound" => Some(Bench::StreamBound),
            "input_bound" => Some(Bench::InputBound),
            "open_mix" => Some(Bench::OpenMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bench::StreamBound => "stream_bound",
            Bench::InputBound => "input_bound",
            Bench::OpenMix => "open_mix",
        }
    }

    /// Chosen here, never from `HAAC_SCALE`.
    fn scale(self) -> Scale {
        match self {
            Bench::StreamBound | Bench::InputBound => Scale::Paper,
            Bench::OpenMix => Scale::Small,
        }
    }

    fn kinds(self) -> Vec<WorkloadKind> {
        match self {
            Bench::StreamBound => {
                vec![WorkloadKind::BubbleSort, WorkloadKind::Triangle, WorkloadKind::GradDesc]
            }
            Bench::InputBound => vec![WorkloadKind::Hamming, WorkloadKind::Relu],
            Bench::OpenMix => WorkloadKind::ALL.to_vec(),
        }
    }

    fn shape(self, seed: u64) -> Shape {
        let open = self == Bench::OpenMix;
        Shape {
            workers: env::nproc(),
            bank_capacity: if open { BANK_CAPACITY } else { 0 },
            tcp: open,
            bank_seed: seed ^ 0xBA2C,
        }
    }
}

#[derive(Debug)]
struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Per-workload session accounting.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    succeeded: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        for s in &phase.samples {
            self.attempted += 1;
            if s.ok {
                self.succeeded += 1;
            } else {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(s.error.clone().unwrap_or_default());
                }
            }
        }
    }

    fn json(&self) -> Json {
        Json::obj()
            .with("attempted", self.attempted)
            .with("succeeded", self.succeeded)
            .with("failed", self.failed)
            .with("failed_ratio", stats::failed_ratio(self.failed, self.attempted))
            .with("errors", self.errors.clone())
    }
}

fn metric(metrics: &mut Json, name: &str, value: f64, unit: &str) {
    metrics.set(name, Json::obj().with("value", value).with("unit", unit));
}

/// Verified sessions' latencies in start order.
fn latencies(phase: &Phase) -> Vec<f64> {
    let mut ok: Vec<&Sample> = phase.samples.iter().filter(|s| s.ok).collect();
    ok.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    ok.iter().map(|s| s.latency_ms).collect()
}

/// Rate, latency and cost of one timed phase.
struct Headline {
    p50_ms: f64,
    tail: stats::Tail,
    and_gates_per_s: f64,
    cpu_ms_per_mand: f64,
}

fn headline(phase: &Phase) -> Headline {
    let lat = latencies(phase);
    let mand = phase.verified_ands() as f64 / 1e6;
    Headline {
        p50_ms: median(&sorted(lat.iter().copied())),
        tail: stats::windowed_tail(&lat),
        and_gates_per_s: stats::ratio(phase.verified_ands() as f64, phase.active_s),
        cpu_ms_per_mand: stats::ratio(phase.cpu_s * 1e3, mand),
    }
}

/// Sessions that finished correctly within [`SLO_MS`].
fn slo_met(phase: &Phase) -> u64 {
    phase.samples.iter().filter(|s| s.ok && s.latency_ms <= SLO_MS).count() as u64
}

fn tail_json(t: &stats::Tail) -> Json {
    Json::obj()
        .with("value_ms", t.value)
        .with("percentile", t.percentile)
        .with("samples", t.samples)
        .with("beyond", t.beyond)
        .with("windows", t.windows)
}

/// Client `c` of a closed loop cycles the kinds starting at the `c`-th,
/// so every client sees every kind and the mix does not depend on the
/// seed.
fn closed_cycles(prepared: &[Arc<Prepared>], clients: usize) -> Vec<Vec<Arc<Prepared>>> {
    (0..clients)
        .map(|c| {
            (0..prepared.len()).map(|i| Arc::clone(&prepared[(c + i) % prepared.len()])).collect()
        })
        .collect()
}

fn clients() -> usize {
    env::nproc().min(2)
}

/// Checks the server's books against what the clients saw: every
/// client completion is a registry completion, and every bank claim is
/// a hit or a miss.
fn reconcile(
    server: &Server,
    tally: &Tally,
    ladder_sessions: u64,
    bank_on: bool,
) -> Result<Json, String> {
    if !server.registry().wait_drained(Duration::from_secs(60)) {
        return Err("server did not drain".to_string());
    }
    let report = server.report();
    let claims = server.bank().hits() + server.bank().misses();
    let mut errors = Vec::new();
    if report.completed != tally.succeeded + ladder_sessions {
        errors.push(format!(
            "registry completed {} sessions, clients verified {} plus {ladder_sessions} ladder sessions",
            report.completed, tally.succeeded
        ));
    }
    if bank_on && !(report.completed..=report.completed + report.failed).contains(&claims) {
        errors.push(format!(
            "bank claims {claims} do not match {} served sessions",
            report.completed
        ));
    }
    if errors.is_empty() {
        Ok(Json::obj()
            .with("registry_completed", report.completed)
            .with("registry_failed", report.failed)
            .with("client_verified", tally.succeeded)
            .with("ladder_sessions", ladder_sessions)
            .with("bank_claims", claims))
    } else {
        Err(errors.join("; "))
    }
}

/// The open-loop run: `(rate, window_s)` steps ascending, stopping
/// after the first step that fails at or above the nominal rate.
fn open_steps(setup: &Setup, seed: u64, tracer: &Tracer, steps_in: &[(f64, f64)]) -> Vec<Step> {
    let addr = setup.addr.expect("open_mix listens on TCP");
    let mut steps = Vec::new();
    for (i, &(rate, window)) in steps_in.iter().enumerate() {
        let mut rng = rand::SeedableRng::seed_from_u64(seed ^ (0x0DE7_0000 + i as u64));
        let requests = served::open_schedule(rate, window, setup.prepared.len(), &mut rng);
        let step = tracer.span("open.step", None, None, |p| {
            served::open_step(addr, &setup.prepared, &requests, rate, clients(), tracer, p)
        });
        let held = stats::step_passes(&step_stats(&step), SLO_MS);
        steps.push(step);
        if !held && rate >= NOMINAL_RATE {
            break;
        }
    }
    steps
}

fn step_stats(step: &Step) -> stats::Step {
    stats::Step {
        rate: step.rate,
        tail_ms: stats::windowed_tail(&latencies(&step.phase)).value,
        sent: step.sent,
        failed: step.phase.samples.iter().filter(|s| !s.ok).count() as u64,
        backlog_growing: stats::backlog_growing(&step.lateness_ms, SLO_MS),
    }
}

fn step_json(step: &Step) -> Json {
    let s = step_stats(step);
    let h = headline(&step.phase);
    Json::obj()
        .with("rate", step.rate)
        .with("sent", step.sent)
        .with("failed", s.failed)
        .with("cold", step.phase.samples.iter().filter(|x| x.cold).count())
        .with("p50_ms", h.p50_ms)
        .with("tail", tail_json(&h.tail))
        .with("and_gates_per_s", h.and_gates_per_s)
        .with("slo_met_ratio", stats::slo_met_ratio(slo_met(&step.phase), step.sent))
        .with(
            "generator_late_p99_ms",
            stats::percentile(&sorted(step.lateness_ms.iter().copied()), 99.0),
        )
        .with(
            "generator_lag_p99_ms",
            stats::percentile(&sorted(step.gen_lag_ms.iter().copied()), 99.0),
        )
        .with("backlog_growing", s.backlog_growing)
        .with("generator_fell_behind", stats::backlog_growing(&step.gen_lag_ms, SLO_MS))
        .with("holds", stats::step_passes(&s, SLO_MS))
}

/// One timed phase's result: the sessions the end-to-end metrics come
/// from and, on `open_mix`, the open-loop steps.
struct Timed {
    nominal: Phase,
    open: Option<OpenSteps>,
}

struct OpenSteps {
    max_rate: f64,
    /// Requests due at the nominal rate.
    sent: u64,
    steps: Json,
    generator_lag_p99_ms: f64,
    /// The generator's own lag grew across a step: the offered load was
    /// not the scheduled one, and the run is invalid.
    generator_fell_behind: bool,
}

fn timed_phase(
    bench: Bench,
    setup: &Setup,
    cycles: &[Vec<Arc<Prepared>>],
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Timed {
    if bench != Bench::OpenMix {
        let phase = served::closed_loop(&setup.server, cycles, seconds, seed, tracer, None);
        tally.add(&phase);
        return Timed { nominal: phase, open: None };
    }
    let plan: Vec<(f64, f64)> =
        OPEN_STEPS.iter().map(|&(rate, share)| (rate, share * seconds)).collect();
    let steps = open_steps(setup, seed, tracer, &plan);
    steps.iter().for_each(|s| tally.add(&s.phase));
    let step_list: Vec<stats::Step> = steps.iter().map(step_stats).collect();
    let lag = sorted(steps.iter().flat_map(|s| s.gen_lag_ms.iter().copied()));
    let generator_fell_behind = steps.iter().any(|s| stats::backlog_growing(&s.gen_lag_ms, SLO_MS));
    let steps_json: Vec<Json> = steps.iter().map(step_json).collect();
    let nominal = steps.into_iter().find(|s| s.rate == NOMINAL_RATE).expect("nominal rate runs");
    Timed {
        open: Some(OpenSteps {
            max_rate: stats::max_rate_at_slo(&step_list, SLO_MS),
            sent: nominal.sent,
            steps: Json::arr(steps_json),
            generator_lag_p99_ms: stats::percentile(&lag, 99.0),
            generator_fell_behind,
        }),
        nominal: nominal.phase,
    }
}

/// What a run produced before its metrics are chosen.
struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Json,
    detail: Json,
    spans: Option<Json>,
}

fn run(args: &Args, started: Instant) -> Outcome {
    let bench = args.bench;
    let seconds = args.seconds as f64;
    let tracer = Tracer::new(args.trace);
    let kinds = bench.kinds();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup, setup_s, build_s, plan_s) =
        served::setup_median(reps, &kinds, bench.scale(), bench.shape(args.seed), &tracer);
    let mut tally = Tally::default();
    let mut detail = Json::obj();
    let mut errors: Vec<String> = Vec::new();
    detail.set("setup_s", setup_s).set("setup_reps", reps);

    // Warm-up outside the timed phase: one session per client (closed)
    // or half a second at the nominal rate (open).
    let cycles = closed_cycles(&setup.prepared, clients());
    match bench {
        Bench::OpenMix => {
            let steps =
                open_steps(&setup, args.seed ^ 0x3A3A, &Tracer::new(false), &[(NOMINAL_RATE, 0.5)]);
            steps.iter().for_each(|s| tally.add(&s.phase));
        }
        _ => tally.add(&served::closed_loop(
            &setup.server,
            &cycles,
            0.0,
            args.seed ^ 0x3A3A,
            &Tracer::new(false),
            None,
        )),
    }

    let mut metrics = Json::obj();
    let mut ladder_sessions = 0;
    if !args.trace {
        let steal0 = env::steal_ticks();
        let timed = timed_phase(bench, &setup, &cycles, seconds, args.seed, &tracer, &mut tally);
        let steal = env::steal_share_since(steal0);
        let peak_rss_mb = env::peak_rss_mb();
        let h = headline(&timed.nominal);
        metric(&mut metrics, "session_p50_ms", h.p50_ms, "ms");
        metric(&mut metrics, "session_tail_ms", h.tail.value, "ms");
        metric(&mut metrics, "and_gates_per_s", h.and_gates_per_s, "1/s");
        metric(&mut metrics, "cpu_ms_per_mand", h.cpu_ms_per_mand, "ms");
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb, "MiB");
        metric(&mut metrics, "setup_s", setup_s, "s");
        metric(
            &mut metrics,
            "verified_ratio",
            stats::verified_ratio(tally.succeeded, tally.attempted),
            "ratio",
        );
        if let Some(open) = timed.open {
            let met = slo_met(&timed.nominal);
            metric(&mut metrics, "slo_met_ratio", stats::slo_met_ratio(met, open.sent), "ratio");
            metric(&mut metrics, "max_rate_at_slo", open.max_rate, "1/s");
            if open.generator_fell_behind {
                errors.push("invalid run: the generator fell behind its schedule".to_string());
            }
            detail
                .set("generator_fell_behind", open.generator_fell_behind)
                .set("generator_lag_p99_ms", open.generator_lag_p99_ms)
                .set("slo_ms", SLO_MS)
                .set("steps", open.steps);
        }
        detail
            .set("timed_sessions", timed.nominal.samples.len())
            .set("timed_wall_s", timed.nominal.wall_s)
            .set("session_tail", tail_json(&h.tail))
            .set("host_steal_share", steal);
    } else {
        let (layer_metrics, layer_detail, ok, l6) =
            traced(args, &tracer, &setup, &cycles, &mut tally, (build_s, plan_s), started);
        metrics = layer_metrics;
        ladder_sessions = l6;
        detail.set("layers", layer_detail);
        if !ok {
            errors.push("ladder or layer check failed".to_string());
        }
    }

    let bank_on = bench.shape(args.seed).bank_capacity > 0;
    match reconcile(&setup.server, &tally, ladder_sessions, bank_on) {
        Ok(j) => {
            detail.set("reconciliation", j);
        }
        Err(e) => errors.push(e),
    }
    setup.server.shutdown();
    let correct = tally.failed == 0 && errors.is_empty();
    detail.set("sessions", tally.json()).set("errors", errors);
    let spans = args.trace.then(|| {
        let summary: Vec<Json> = tracer
            .summary()
            .into_iter()
            .map(|(name, (n, total, own))| {
                Json::obj()
                    .with("name", name)
                    .with("count", n)
                    .with("total_ms", total)
                    .with("self_ms", own)
            })
            .collect();
        detail.set("self_time", Json::arr(summary));
        tracer.spans_json()
    });
    Outcome { correct, tally, metrics, detail, spans }
}

fn median_by(reports: &[&SessionReport], f: impl Fn(&SessionReport) -> f64) -> f64 {
    median(&sorted(reports.iter().map(|r| f(r))))
}

fn mean_by(reports: &[&SessionReport], f: impl Fn(&SessionReport) -> f64) -> f64 {
    stats::ratio(reports.iter().map(|r| f(r)).sum(), reports.len() as f64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sum of `rung(c) · ands(c)` over sum of ands: the pooled ns per AND.
fn pooled(ladders: &[CircuitLadder], rung: impl Fn(&CircuitLadder) -> f64) -> f64 {
    let ands: u64 = ladders.iter().map(|l| l.ands).sum();
    stats::ratio(ladders.iter().map(|l| rung(l) * l.ands as f64).sum(), ands as f64)
}

/// The traced run: an untraced and a traced half of the timed phase,
/// then the micro-rungs and the ladder. Returns per-layer metrics, the
/// detail object, whether every check held, and how many ladder
/// sessions ran on the workload's server.
fn traced(
    args: &Args,
    tracer: &Tracer,
    setup: &Setup,
    cycles: &[Vec<Arc<Prepared>>],
    tally: &mut Tally,
    (build_s, plan_s): (f64, f64),
    started: Instant,
) -> (Json, Json, bool, u64) {
    let bench = args.bench;
    let ladder_deadline = started + LADDER_BEFORE;
    let half = args.seconds as f64 / 2.0;
    let server = &setup.server;
    let off = Tracer::new(false);
    let run_phase = |t: &Tracer, seed: u64| -> Phase {
        match bench {
            Bench::OpenMix => {
                let mut steps = open_steps(setup, seed, t, &[(NOMINAL_RATE, half)]);
                steps.pop().expect("one step").phase
            }
            _ => t.span("closed.phase", None, None, |p| {
                served::closed_loop(server, cycles, half, seed, t, p)
            }),
        }
    };
    let untraced = run_phase(&off, args.seed);
    tally.add(&untraced);
    server.registry().wait_drained(Duration::from_secs(60));
    let outcomes_before = server.registry().outcomes().len();
    let (hits0, misses0, refills0) =
        (server.bank().hits(), server.bank().misses(), server.bank().refills());
    let refusals0 = server.metrics().refusals();
    let phase = run_phase(tracer, args.seed ^ 0x7ACE);
    tally.add(&phase);
    server.registry().wait_drained(Duration::from_secs(60));
    let outcomes = server.registry().outcomes();
    let new_outcomes = &outcomes[outcomes_before.min(outcomes.len())..];
    let garbler: Vec<&SessionReport> =
        new_outcomes.iter().filter_map(|o| o.result.as_ref().ok()).collect();
    let evaluator: Vec<&SessionReport> =
        phase.samples.iter().filter_map(|s| s.report.as_ref()).collect();
    let bank_hits = server.bank().hits() - hits0;
    let bank_misses = server.bank().misses() - misses0;
    // The fewest garbler AES blocks any `bank_hits` sessions of the
    // phase can account for: zero exactly when hits did no online work.
    let blocks_on_hits: u64 = {
        let mut blocks: Vec<u64> = garbler.iter().map(|r| r.crypto.aes_blocks).collect();
        blocks.sort_unstable();
        blocks.iter().take(bank_hits as usize).sum()
    };
    let snapshot = server.metrics_snapshot();
    let pool_utilization = snapshot
        .lines()
        .find_map(|l| l.strip_prefix("haac_pool_utilization "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    let client_mean_ms = stats::ratio(
        phase.samples.iter().filter(|s| s.ok).map(|s| s.latency_ms).sum(),
        evaluator.len() as f64,
    );
    let server_walls: Vec<f64> =
        new_outcomes.iter().map(|o| o.elapsed.as_secs_f64() * 1e3).collect();
    let server_mean_ms = stats::ratio(server_walls.iter().sum(), server_walls.len() as f64);
    let untraced_rate = headline(&untraced).and_gates_per_s;
    let traced_rate = headline(&phase).and_gates_per_s;

    // The ladder: micro-rungs, then L2–L6b on each of the workload's
    // circuits against a bank-off server and a bank-on one.
    let mut ok = true;
    let mut ladder_errors = Vec::new();
    let micro = layers::micro(args.seed, tracer, None).unwrap_or_else(|e| {
        ok = false;
        ladder_errors.push(e);
        Micro::default()
    });
    // L6 must garble online, so a workload with the bank on gets a
    // bank-off server of its own for the ladder.
    let ladder_server = (bench.shape(args.seed).bank_capacity > 0)
        .then(|| Server::new(ServerConfig { workers: env::nproc(), ..ServerConfig::default() }));
    let ladder_on = ladder_server.as_ref().unwrap_or(server);
    // L6b's server: bank on, stocked by L6b alone (its producer's first
    // refill would come long after the run).
    let bank_server = Server::new(ServerConfig {
        workers: env::nproc(),
        bank_capacity: 1,
        bank_refill_interval: Duration::from_secs(3600),
        bank_seed: args.seed ^ 0xBA2C,
        ..ServerConfig::default()
    });
    let pool = EnginePool::new(env::nproc());
    let mut ladders = Vec::new();
    for p in &setup.prepared {
        let seed = args.seed ^ 0x1ADD;
        match layers::ladder(p, ladder_on, &bank_server, &pool, seed, ladder_deadline, tracer, None)
        {
            Ok(l) => {
                if !l.consistent() {
                    ok = false;
                    ladder_errors.push(format!("{}: rungs disagree on counts", l.kind));
                }
                ladders.push(l);
            }
            Err(e) => {
                ok = false;
                ladder_errors.push(e);
            }
        }
    }
    let l6_sessions = ladders.iter().map(|l| l.l6.reps as u64).sum::<u64>();
    let l6b_sessions = ladders.iter().map(|l| l.l6b.reps as u64).sum::<u64>();
    let l6b_bank = bank_server.bank();
    let l6b_counts = (l6b_bank.hits(), l6b_bank.misses(), l6b_bank.refills(), l6b_bank.depth());
    let r = bank_server.shutdown();
    if r.completed != l6b_sessions || r.failed != 0 || l6b_counts.0 != l6b_sessions {
        ok = false;
        ladder_errors.push(format!(
            "bank server completed {} failed {} with {} hits for {l6b_sessions} L6b sessions",
            r.completed, r.failed, l6b_counts.0
        ));
    }
    let on_workload_server = ladder_server.is_none();
    if let Some(own) = ladder_server {
        let r = own.shutdown();
        if r.completed != l6_sessions || r.failed != 0 {
            ok = false;
            ladder_errors
                .push(format!("ladder server completed {} failed {}", r.completed, r.failed));
        }
    }
    let blocks_per_and = ladders.first().map_or(0.0, |l| l.l2.aes_blocks_per_and);
    let l0 = stats::ratio(blocks_per_and * 1e9, micro.aes_fixed_blocks_per_s);
    let chain = [
        ("L0", l0),
        ("L1", micro.hash_ns_per_and),
        ("L2", pooled(&ladders, |l| l.l2.ns_per_and)),
        ("L3", pooled(&ladders, |l| l.l3.ns_per_and)),
        ("L4", pooled(&ladders, |l| l.l4.ns_per_and)),
        ("L5", pooled(&ladders, |l| l.l5.ns_per_and)),
        ("L6", pooled(&ladders, |l| l.l6.ns_per_and)),
    ];
    let served_ns = chain[6].1;

    let mut m = Json::obj();
    metric(&mut m, "lower.build_ms", build_s * 1e3, "ms");
    metric(&mut m, "lower.plan_ms", plan_s * 1e3, "ms");
    let cache = server.cache();
    metric(&mut m, "cache.hits", cache.hits() as f64, "count");
    metric(&mut m, "cache.misses", cache.misses() as f64, "count");
    metric(
        &mut m,
        "cache.hit_us",
        stats::ratio(cache.hit_ns() as f64 / 1e3, cache.hits() as f64),
        "us",
    );
    metric(
        &mut m,
        "cache.miss_ms",
        stats::ratio(cache.miss_ns() as f64 / 1e6, cache.misses() as f64),
        "ms",
    );
    metric(&mut m, "hash.aes_blocks_per_s.fixed", micro.aes_fixed_blocks_per_s, "1/s");
    metric(&mut m, "hash.aes_blocks_per_s.rekeyed", micro.aes_rekeyed_blocks_per_s, "1/s");
    metric(&mut m, "hash.ns_per_and", micro.hash_ns_per_and, "ns");
    metric(&mut m, "hash.aes_blocks_per_and", blocks_per_and, "count");
    metric(&mut m, "exec.garble_ns_per_and", chain[2].1, "ns");
    metric(&mut m, "exec.eval_ns_per_and", pooled(&ladders, |l| l.eval_ns_per_and), "ns");
    metric(&mut m, "exec.pool_ns_per_and", pooled(&ladders, |l| l.l2p.ns_per_and), "ns");
    let oor_peak = garbler
        .iter()
        .chain(&evaluator)
        .map(|r| r.oor_queue_peak)
        .chain(ladders.iter().map(|l| l.oor_queue_peak))
        .max()
        .unwrap_or(0);
    metric(&mut m, "exec.oor_queue_peak", oor_peak as f64, "count");
    metric(&mut m, "ot.base_ms", micro.ot_base_ms, "ms");
    metric(&mut m, "ot.ext_us_per_input", micro.ot_ext_us_per_input, "us");
    metric(&mut m, "ot.base_ots", mean_by(&garbler, |r| r.base_ots as f64), "count");
    metric(&mut m, "ot.ext_ots", mean_by(&garbler, |r| r.ext_ots as f64), "count");
    metric(&mut m, "ot.session_ms.garbler", median_by(&garbler, |r| ms(r.ot_ns)), "ms");
    metric(&mut m, "ot.session_ms.evaluator", median_by(&evaluator, |r| ms(r.ot_ns)), "ms");
    metric(&mut m, "wire.frame_ns_per_and", chain[3].1, "ns");
    metric(&mut m, "wire.tcp_ns_per_and", chain[5].1, "ns");
    metric(&mut m, "wire.bytes_per_and", pooled(&ladders, |l| l.l3.bytes_per_and), "B");
    metric(
        &mut m,
        "wire.chunks_per_session",
        mean_by(&garbler, |r| r.table_chunks as f64),
        "count",
    );
    metric(&mut m, "session.local_ns_per_and", chain[4].1, "ns");
    for (side, reports) in [("garbler", &garbler), ("evaluator", &evaluator)] {
        metric(
            &mut m,
            &format!("session.compute_ms.{side}"),
            median_by(reports, |r| ms(r.compute_ns)),
            "ms",
        );
        metric(&mut m, &format!("session.io_ms.{side}"), median_by(reports, |r| ms(r.io_ns)), "ms");
        metric(
            &mut m,
            &format!("session.compute_stall_ms.{side}"),
            median_by(reports, |r| ms(r.compute_stall_ns)),
            "ms",
        );
        metric(
            &mut m,
            &format!("session.io_stall_ms.{side}"),
            median_by(reports, |r| ms(r.io_stall_ns)),
            "ms",
        );
    }
    metric(
        &mut m,
        "session.garbler_overlap_ratio",
        median_by(&garbler, |r| r.overlap_ratio),
        "ratio",
    );
    metric(&mut m, "server.served_ns_per_and", served_ns, "ns");
    metric(&mut m, "server.wall_ms", median(&sorted(server_walls.iter().copied())), "ms");
    metric(&mut m, "server.client_gap_ms", client_mean_ms - server_mean_ms, "ms");
    metric(&mut m, "server.refusals", (server.metrics().refusals() - refusals0) as f64, "count");
    metric(&mut m, "server.pool_utilization", pool_utilization, "ratio");
    metric(
        &mut m,
        "client.retries",
        phase.samples.iter().map(|s| s.retries).sum::<u64>() as f64,
        "count",
    );
    // Bank counters: the traced phase's where the workload's bank is on,
    // else those of the L6b sessions.
    let (hits, misses, refills, depth_end, blocks_on_hits) = if bench.shape(args.seed).bank_capacity
        > 0
    {
        let refills = server.bank().refills() - refills0;
        (bank_hits, bank_misses, refills, server.bank().depth(), blocks_on_hits)
    } else {
        let (hits, misses, refills, depth) = l6b_counts;
        let blocks: f64 = ladders.iter().map(|l| l.l6b.aes_blocks_per_and * l.ands as f64).sum();
        (hits, misses, refills, depth, blocks as u64)
    };
    metric(&mut m, "bank.hits", hits as f64, "count");
    metric(&mut m, "bank.misses", misses as f64, "count");
    metric(&mut m, "bank.hit_ratio", stats::hit_ratio(hits, misses), "ratio");
    metric(&mut m, "bank.refills", refills as f64, "count");
    metric(&mut m, "bank.depth_end", depth_end as f64, "count");
    metric(&mut m, "bank.garbler_aes_blocks_on_hits", blocks_on_hits as f64, "count");
    metric(&mut m, "bank.served_ns_per_and", pooled(&ladders, |l| l.l6b.ns_per_and), "ns");
    for pair in chain.windows(2) {
        let (name, ns) = pair[1];
        metric(
            &mut m,
            &format!("ladder.{name}.vs_previous"),
            stats::vs_previous(pair[0].1, ns),
            "ratio",
        );
    }
    metric(
        &mut m,
        "ladder.roofline",
        stats::roofline(served_ns, micro.aes_fixed_blocks_per_s, blocks_per_and),
        "ratio",
    );
    metric(
        &mut m,
        "trace.overhead_ratio",
        stats::overhead_ratio(traced_rate, untraced_rate),
        "ratio",
    );

    let rows: Vec<Json> = ladders
        .iter()
        .map(|l| {
            let mut row = Json::obj()
                .with("kind", l.kind)
                .with("ands", l.ands)
                .with("consistent", l.consistent());
            for (name, r) in l.chain() {
                row.set(
                    name,
                    Json::obj()
                        .with("ns_per_and", r.ns_per_and)
                        .with("tables", r.tables)
                        .with("aes_blocks_per_and", r.aes_blocks_per_and)
                        .with("bytes_per_and", r.bytes_per_and)
                        .with("reps", r.reps),
                );
            }
            row.with("eval_ns_per_and", l.eval_ns_per_and)
        })
        .collect();
    let chain_json: Vec<Json> = chain
        .iter()
        .map(|(name, ns)| Json::obj().with("rung", *name).with("ns_per_and", *ns))
        .collect();
    let detail = Json::obj()
        .with("untraced_and_gates_per_s", untraced_rate)
        .with("traced_and_gates_per_s", traced_rate)
        .with("traced_sessions", phase.samples.len())
        .with("ladder_pooled", Json::arr(chain_json))
        .with("ladder_circuits", Json::arr(rows))
        .with("ladder_errors", ladder_errors)
        .with("note_ot_session_evaluator", "includes the wait for the first table flush");
    (m, detail, ok, if on_workload_server { l6_sessions } else { 0 })
}

fn write_report(args: &Args, text: &str, spans: Option<&Json>) {
    let dir = std::path::Path::new("perfbench").join("out");
    let stem = format!("{}-seed{}-trace{}", args.bench.name(), args.seed, u8::from(args.trace));
    let result = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), text))
        .and_then(|_| match spans {
            Some(s) => std::fs::write(dir.join(format!("{stem}-spans.json")), s.to_string()),
            None => Ok(()),
        });
    if let Err(e) = result {
        eprintln!("perfbench: could not write the report under {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <stream_bound|input_bound|open_mix> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let bench = args.bench;
    let scale = match bench.scale() {
        Scale::Paper => "paper",
        Scale::Small => "small",
    };
    let environment = env::environment(bench.name(), scale, args.seed, args.seconds, args.trace);
    println!("{}", Json::obj().with("env", environment.clone()));
    let outcome = run(&args, started);
    println!("{}", Json::obj().with("detail", outcome.detail.clone()));
    let result = Json::obj()
        .with("correct", outcome.correct)
        .with("attempted", outcome.tally.attempted)
        .with("failed", outcome.tally.failed)
        .with("metrics", outcome.metrics);
    let report = Json::obj()
        .with("env", environment)
        .with("detail", outcome.detail)
        .with("result", result.clone());
    write_report(&args, &report.to_string(), outcome.spans.as_ref());
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
