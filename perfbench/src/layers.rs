//! Per-layer measurements, timed from outside through public calls:
//! the AES and hash micro-rungs, the OT primitives, and the ladder
//! L2 (executor) → L3 (framing) → L4 (in-memory session) → L5 (TCP
//! session) → L6 (served session) on one prepared circuit, with the
//! side rungs L2p (pooled garbling) and L6b (served from the bank).

use std::io;
use std::time::Instant;

use haac_gc::aes::Aes128;
use haac_gc::ot::base::{OtReceiver, OtSender};
use haac_gc::{
    garble_plan_in, Block, EnginePool, GateHash, HashScheme, OtExtReceiver, OtExtSender,
    StreamingEvaluator, StreamingGarbler, MAX_AND_BATCH, OT_EXT_KAPPA,
};
use haac_runtime::wire::{read_message, write_tables, Message};
use haac_runtime::{run_local_session, run_tcp_session, Channel, ChannelStats, SessionReport};
use haac_server::{client, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::served::Prepared;
use crate::stats::{median, sorted};
use crate::trace::{SpanId, Tracer};

/// Repetitions behind every median the ladder reports, time allowing.
pub const REPS: usize = 3;

/// Bytes of one garbled AND table: two 16-byte ciphertexts.
const TABLE_BYTES: u64 = 32;

/// The garbler's AES blocks per AND gate under half-gates: two labels
/// hashed under each of the gate's two tweaks.
const BLOCKS_PER_AND: usize = 4;

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&sorted(values))
}

/// Circuit-independent rungs and OT primitives.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// L0: fixed-key AES blocks per second.
    pub aes_fixed_blocks_per_s: f64,
    /// Re-keyed hash blocks per second, two blocks per key expansion as
    /// in an AND gate.
    pub aes_rekeyed_blocks_per_s: f64,
    /// L1: the hash work of one AND gate through `GateHash::hash_batch`.
    pub hash_ns_per_and: f64,
    /// κ base OTs, the extension's bootstrap.
    pub ot_base_ms: f64,
    /// OT extension per transfer, base OTs excluded.
    pub ot_ext_us_per_input: f64,
}

fn random_block(rng: &mut StdRng) -> Block {
    Block::from((u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>()))
}

pub fn micro(seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> Result<Micro, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gates = 4 * MAX_AND_BATCH;
    let lanes = BLOCKS_PER_AND * gates;
    let xs: Vec<Block> = (0..lanes).map(|_| random_block(&mut rng)).collect();
    let rounds = 4_000;

    let fixed = tracer.span("aes.fixed", parent, None, |_| {
        let aes = Aes128::new([7; 16]);
        median_of((0..REPS * 2).map(|_| {
            let mut buf = xs.clone();
            let t = Instant::now();
            for _ in 0..rounds {
                aes.encrypt_blocks(&mut buf);
            }
            std::hint::black_box(&buf);
            (rounds * lanes) as f64 / t.elapsed().as_secs_f64()
        }))
    });

    // Tweaks shaped like consecutive AND gates: [2g, 2g, 2g+1, 2g+1].
    let (rekeyed, hash_ns) = tracer.span("hash.hash_batch", parent, None, |_| {
        let mut out = vec![Block::ZERO; lanes];
        let tweaks: Vec<u64> = (0..lanes as u64).map(|l| 2 * (l / 4) + (l / 2) % 2).collect();
        let runs: Vec<(f64, f64)> = (0..REPS * 2)
            .map(|_| {
                let hash = GateHash::new(HashScheme::Rekeyed);
                let t = Instant::now();
                for _ in 0..rounds {
                    hash.hash_batch(&xs, &tweaks, &mut out);
                }
                std::hint::black_box(&out);
                let secs = t.elapsed().as_secs_f64();
                (hash.counters().aes_blocks as f64 / secs, secs * 1e9 / (rounds * gates) as f64)
            })
            .collect();
        (median_of(runs.iter().map(|r| r.0)), median_of(runs.iter().map(|r| r.1)))
    });

    let base_ms = tracer.span("ot.base", parent, None, |_| {
        let runs: Result<Vec<f64>, String> = (0..REPS)
            .map(|_| {
                let choices: Vec<bool> = (0..OT_EXT_KAPPA).map(|_| rng.gen()).collect();
                let pairs: Vec<(Block, Block)> = (0..OT_EXT_KAPPA)
                    .map(|_| (random_block(&mut rng), random_block(&mut rng)))
                    .collect();
                let t = Instant::now();
                let sender = OtSender::new(&mut rng);
                let receiver =
                    OtReceiver::new(&mut rng, sender.public_point(), sender.nonce(), &choices)
                        .map_err(|e| e.to_string())?;
                let cts = sender
                    .encrypt(&receiver.blinded_points(), &pairs)
                    .map_err(|e| e.to_string())?;
                let got = receiver.decrypt(&cts).map_err(|e| e.to_string())?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let want: Vec<Block> =
                    pairs.iter().zip(&choices).map(|(&(a, b), &c)| if c { b } else { a }).collect();
                if got != want {
                    return Err("base OT delivered the wrong labels".to_string());
                }
                Ok(ms)
            })
            .collect();
        runs.map(median_of)
    })?;

    // The input_bound kernels deliver 33–41 k labels per session.
    let m = 32_768;
    let ext_us = tracer.span("ot.extension", parent, None, |_| {
        let runs: Result<Vec<f64>, String> = (0..REPS)
            .map(|_| {
                let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
                let pairs: Vec<(Block, Block)> =
                    (0..m).map(|_| (random_block(&mut rng), random_block(&mut rng))).collect();
                let sender = OtExtSender::new(&mut rng);
                let mut receiver = OtExtReceiver::new(&mut rng, &choices);
                // The base OTs' result, handed over directly: they are
                // timed on their own above.
                let seeds: Vec<Block> = receiver
                    .seed_pairs()
                    .iter()
                    .zip(sender.choice_bits())
                    .map(|(&(k0, k1), &s)| if s { k1 } else { k0 })
                    .collect();
                let t = Instant::now();
                let u = receiver.u_matrix();
                let cts = sender.process(&seeds, &u, &pairs).map_err(|e| e.to_string())?;
                let got = receiver.decrypt(&cts).map_err(|e| e.to_string())?;
                let us = t.elapsed().as_secs_f64() * 1e6 / m as f64;
                let want: Vec<Block> =
                    pairs.iter().zip(&choices).map(|(&(a, b), &c)| if c { b } else { a }).collect();
                if got != want {
                    return Err("OT extension delivered the wrong labels".to_string());
                }
                Ok(us)
            })
            .collect();
        runs.map(median_of)
    })?;

    Ok(Micro {
        aes_fixed_blocks_per_s: fixed,
        aes_rekeyed_blocks_per_s: rekeyed,
        hash_ns_per_and: hash_ns,
        ot_base_ms: base_ms,
        ot_ext_us_per_input: ext_us,
    })
}

/// A channel that keeps what it is sent and reads it back.
#[derive(Debug, Default)]
struct Sink {
    bytes: Vec<u8>,
    read: usize,
    flushes: u64,
}

impl Channel for Sink {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let end = self.read + buf.len();
        let from = self.bytes.get(self.read..end).ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(from);
        self.read = end;
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
    fn stats(&self) -> ChannelStats {
        ChannelStats {
            bytes_sent: self.bytes.len() as u64,
            bytes_received: self.read as u64,
            flushes: self.flushes,
        }
    }
}

/// Decodes everything sent into `sink`, which must be `Tables` frames
/// only, and returns the tables and the frame count.
fn read_back_tables(sink: &mut Sink) -> Result<(Vec<[Block; 2]>, u64), String> {
    let mut out = Vec::new();
    let mut frames = 0;
    while sink.read < sink.bytes.len() {
        match read_message(sink).map_err(|e| e.to_string())? {
            Message::Tables { tables, .. } => out.extend(tables),
            other => return Err(format!("unexpected {} frame in the table stream", other.name())),
        }
        frames += 1;
    }
    Ok((out, frames))
}

/// One rung on one circuit: median ns per AND and the exact counts the
/// consistency check compares.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    pub ns_per_and: f64,
    pub tables: u64,
    /// Garbler AES blocks per AND table.
    pub aes_blocks_per_and: f64,
    /// `Tables`-frame bytes per AND table.
    pub bytes_per_and: f64,
    /// Repetitions behind `ns_per_and`.
    pub reps: usize,
}

/// The ladder on one circuit.
#[derive(Debug, Clone)]
pub struct CircuitLadder {
    pub kind: &'static str,
    pub ands: u64,
    pub l2: Rung,
    pub eval_ns_per_and: f64,
    pub l2p: Rung,
    pub l3: Rung,
    pub l4: Rung,
    pub l5: Rung,
    pub l6: Rung,
    pub l6b: Rung,
    pub oor_queue_peak: usize,
}

impl CircuitLadder {
    /// L2 → L6 and the side rungs, which must agree exactly.
    pub fn chain(&self) -> [(&'static str, Rung); 7] {
        [
            ("L2", self.l2),
            ("L2p", self.l2p),
            ("L3", self.l3),
            ("L4", self.l4),
            ("L5", self.l5),
            ("L6", self.l6),
            ("L6b", self.l6b),
        ]
    }

    /// Every rung ran the same circuit and agrees on tables, AES blocks
    /// per AND and stream bytes per AND; a bank hit (L6b) streams stored
    /// tables, so its garbler does no AES work at all.
    pub fn consistent(&self) -> bool {
        let r = self.l2;
        self.chain().iter().all(|&(name, x)| {
            let blocks = if name == "L6b" { 0.0 } else { r.aes_blocks_per_and };
            x.tables == self.ands
                && x.aes_blocks_per_and == blocks
                && x.bytes_per_and == r.bytes_per_and
        })
    }
}

/// Runs `f` `REPS` times, or fewer once `deadline` has passed, and
/// keeps the median time; every rep must yield the same rung counts.
fn rung(
    ands: u64,
    deadline: Instant,
    mut f: impl FnMut() -> Result<(f64, Rung), String>,
) -> Result<Rung, String> {
    let mut times = Vec::new();
    let mut first: Option<Rung> = None;
    for rep in 0..REPS {
        if rep > 0 && Instant::now() >= deadline {
            break;
        }
        let (secs, r) = f()?;
        times.push(secs * 1e9 / ands as f64);
        match first {
            Some(f)
                if (f.tables, f.aes_blocks_per_and, f.bytes_per_and)
                    != (r.tables, r.aes_blocks_per_and, r.bytes_per_and) =>
            {
                return Err("a rung's counts changed between repetitions".to_string())
            }
            Some(_) => {}
            None => first = Some(r),
        }
    }
    Ok(Rung {
        ns_per_and: median_of(times.iter().copied()),
        reps: times.len(),
        ..first.expect("REPS > 0")
    })
}

/// A session rung's counts. Its stream bytes are not measured: they are
/// derived from the report's table and chunk counts, with the bytes a
/// frame adds to its tables as L3 measured them.
fn session_rung(g: &SessionReport, frame_overhead: f64) -> Rung {
    let tables = g.tables.max(1) as f64;
    Rung {
        ns_per_and: 0.0,
        tables: g.tables,
        aes_blocks_per_and: g.crypto.aes_blocks as f64 / tables,
        bytes_per_and: ((TABLE_BYTES * g.tables) as f64 + frame_overhead * g.table_chunks as f64)
            / tables,
        reps: 0,
    }
}

/// Runs L2–L6b on one prepared circuit, all from the same seed, and
/// checks every rung's outputs against the plaintext reference.
/// `server` must have its bank off, so L6 garbles online; `bank` must
/// have it on with no refills of its own, and L6b stocks it with one
/// instance (untimed) before each session. Past `deadline` each rung
/// stops after one repetition, which keeps a run on a slow machine
/// inside its time limit.
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    p: &Prepared,
    server: &Server,
    bank: &Server,
    pool: &EnginePool,
    seed: u64,
    deadline: Instant,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<CircuitLadder, String> {
    let w = &p.workload;
    let ands = p.ands();
    let scheme = p.config.scheme;
    let program = &p.config.plan.as_ref().ok_or("config has no lowered plan")?.program;
    let chunk = p.config.chunk_tables();
    let expect = |outputs: &[bool], rung: &str| {
        if outputs == w.expected.as_slice() {
            Ok(())
        } else {
            Err(format!("{} {rung}: outputs diverge from the plaintext reference", p.kind.name()))
        }
    };
    tracer.span("ladder.circuit", parent, None, |parent| {
        // L2: garble into a Vec; the evaluator then consumes the Vec.
        let mut reference: Vec<[Block; 2]> = Vec::new();
        let mut eval_ns = Vec::new();
        let mut oor_queue_peak = 0;
        let l2 = tracer.span("ladder.L2", parent, None, |_| {
            rung(ands, deadline, || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut g = StreamingGarbler::with_plan(program, &mut rng, scheme);
                let labels = g.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
                let mut all = Vec::with_capacity(ands as usize);
                let mut buf = Vec::new();
                let t = Instant::now();
                while g.next_tables_into(chunk, &mut buf) {
                    all.extend_from_slice(&buf);
                }
                let secs = t.elapsed().as_secs_f64();
                let fin = g.finish();
                let t = Instant::now();
                let mut e = StreamingEvaluator::with_plan(program, labels, scheme);
                for c in all.chunks(chunk) {
                    e.feed(c);
                }
                eval_ns.push(t.elapsed().as_secs_f64() * 1e9 / ands as f64);
                let out = e.finish(&fin.output_decode);
                expect(&out.outputs, "L2")?;
                oor_queue_peak = oor_queue_peak.max(fin.oor_queue_peak).max(out.oor_queue_peak);
                let r = Rung {
                    ns_per_and: 0.0,
                    tables: all.len() as u64,
                    aes_blocks_per_and: fin.crypto.aes_blocks as f64 / all.len().max(1) as f64,
                    bytes_per_and: 0.0,
                    reps: 0,
                };
                reference = all;
                Ok((secs, r))
            })
        })?;
        // L2p: the pooled wave scheduler, bit-identical to L2 by seed.
        let l2p = tracer.span("ladder.L2p", parent, None, |_| {
            rung(ands, deadline, || {
                let mut rng = StdRng::seed_from_u64(seed);
                let t = Instant::now();
                let pg = garble_plan_in(program, &mut rng, scheme, pool);
                let secs = t.elapsed().as_secs_f64();
                if pg.tables != reference {
                    return Err(format!("{} L2p: tables differ from L2", p.kind.name()));
                }
                let tables = pg.tables.len() as u64;
                Ok((
                    secs,
                    Rung {
                        ns_per_and: 0.0,
                        tables,
                        aes_blocks_per_and: pg.crypto.aes_blocks as f64 / tables.max(1) as f64,
                        bytes_per_and: 0.0,
                        reps: 0,
                    },
                ))
            })
        })?;
        // L3: garble and frame each chunk into a sink channel, then
        // decode the frames and compare with L2's tables.
        let mut frame_overhead = 0.0;
        let l3 = tracer.span("ladder.L3", parent, None, |_| {
            rung(ands, deadline, || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut g = StreamingGarbler::with_plan(program, &mut rng, scheme);
                let mut sink =
                    Sink { bytes: Vec::with_capacity(ands as usize * 33), ..Sink::default() };
                let mut buf = Vec::new();
                let mut seq = 0;
                let t = Instant::now();
                while g.next_tables_into(chunk, &mut buf) {
                    write_tables(&mut sink, seq, &buf).map_err(|e| e.to_string())?;
                    sink.flush().map_err(|e| e.to_string())?;
                    seq += 1;
                }
                let secs = t.elapsed().as_secs_f64();
                let fin = g.finish();
                let (tables_back, frames) = read_back_tables(&mut sink)?;
                if tables_back != reference {
                    return Err(format!("{} L3: framed tables differ from L2", p.kind.name()));
                }
                frame_overhead =
                    (sink.bytes.len() as u64 - TABLE_BYTES * ands) as f64 / frames.max(1) as f64;
                let tables = ands.max(1) as f64;
                Ok((
                    secs,
                    Rung {
                        ns_per_and: 0.0,
                        tables: ands,
                        aes_blocks_per_and: fin.crypto.aes_blocks as f64 / tables,
                        bytes_per_and: sink.bytes.len() as f64 / tables,
                        reps: 0,
                    },
                ))
            })
        })?;
        drop(reference);
        let mut l2 = l2;
        let mut l2p = l2p;
        // Tables are framed identically whatever produced them.
        l2.bytes_per_and = l3.bytes_per_and;
        l2p.bytes_per_and = l3.bytes_per_and;
        let l4 = tracer.span("ladder.L4", parent, None, |_| {
            rung(ands, deadline, || {
                let t = Instant::now();
                let (g, e) = run_local_session(
                    &w.circuit,
                    &w.garbler_bits,
                    &w.evaluator_bits,
                    seed,
                    &p.config,
                )
                .map_err(|e| e.to_string())?;
                let secs = t.elapsed().as_secs_f64();
                expect(&g.outputs, "L4 garbler")?;
                expect(&e.outputs, "L4 evaluator")?;
                Ok((secs, session_rung(&g, frame_overhead)))
            })
        })?;
        let l5 = tracer.span("ladder.L5", parent, None, |_| {
            rung(ands, deadline, || {
                let t = Instant::now();
                let (g, e) = run_tcp_session(
                    &w.circuit,
                    &w.garbler_bits,
                    &w.evaluator_bits,
                    seed,
                    &p.config,
                )
                .map_err(|e| e.to_string())?;
                let secs = t.elapsed().as_secs_f64();
                expect(&g.outputs, "L5 garbler")?;
                expect(&e.outputs, "L5 evaluator")?;
                Ok((secs, session_rung(&g, frame_overhead)))
            })
        })?;
        // One served session, timed from connect to verified outputs,
        // with the server's own report of it.
        let served = |server: &Server, name: &str| -> Result<(f64, Rung), String> {
            let before = server.registry().outcomes().len();
            let t = Instant::now();
            let mut channel = server.connect();
            let e = client::run_session_with(&mut channel, &p.request(seed), w, &p.config)
                .map_err(|e| e.to_string())?;
            let secs = t.elapsed().as_secs_f64();
            expect(&e.outputs, &format!("{name} evaluator"))?;
            server.registry().wait_drained(std::time::Duration::from_secs(30));
            let outcomes = server.registry().outcomes();
            let g = match outcomes.get(before..) {
                Some([one]) => one.result.clone()?,
                _ => return Err(format!("{name}: expected exactly one new server outcome")),
            };
            expect(&g.outputs, &format!("{name} garbler"))?;
            Ok((secs, session_rung(&g, frame_overhead)))
        };
        let l6 = tracer
            .span("ladder.L6", parent, None, |_| rung(ands, deadline, || served(server, "L6")))?;
        let l6b = tracer.span("ladder.L6b", parent, None, |_| {
            rung(ands, deadline, || {
                if bank.prefill(p.kind, p.scale, p.reorder, 1) != 1 {
                    return Err(format!("{} L6b: the bank took no instance", p.kind.name()));
                }
                served(bank, "L6b")
            })
        })?;
        Ok(CircuitLadder {
            kind: p.kind.name(),
            ands,
            l2,
            eval_ns_per_and: median_of(eval_ns),
            l2p,
            l3,
            l4,
            l5,
            l6,
            l6b,
            oor_queue_peak,
        })
    })
}
