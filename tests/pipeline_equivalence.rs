//! Pipelined ≡ serial, slab ≡ HashMap: the rebuilt streaming layer must
//! put **bit-identical bytes on the wire** and decode the plaintext
//! reference for every VIP-Bench workload, every transport, and every
//! chunk granularity.
//!
//! The matrix per workload:
//! - label store: slot-slab (plan-driven) vs liveness-retired HashMap;
//! - ring depth: the default (autotuned) compute/I/O ring vs a
//!   one-buffer ring, which strictly alternates garbling and shipping;
//! - transport: in-process `MemChannel` and real TCP loopback;
//! - chunk sizes: 1, window/2 (the default slide granularity), the full
//!   window, and a single chunk larger than the whole table stream.
//!
//! Byte identity is checked by recording every byte the garbler hands
//! the transport and comparing across variants; the maximally different
//! pair (one-buffer+HashMap vs full-ring+slab) must agree exactly.

use std::io;

use haac::prelude::*;
use haac_runtime::{run_evaluator_with, run_garbler, ChannelStats, RuntimeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wraps a channel and keeps a copy of every byte sent through it.
struct RecordingChannel<C: Channel> {
    inner: C,
    sent: Vec<u8>,
}

impl<C: Channel> Channel for RecordingChannel<C> {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sent.extend_from_slice(bytes);
        self.inner.send(bytes)
    }
    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.recv_exact(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }
}

/// Runs one full in-process session with the garbler's transport
/// recorded; both sides use `config`. Returns the garbler's transcript
/// bytes plus both reports.
fn run_recorded(
    workload: &haac::workloads::Workload,
    config: &SessionConfig,
    seed: u64,
) -> Result<(Vec<u8>, SessionReport, SessionReport), RuntimeError> {
    let (gc, mut ec) = MemChannel::pair();
    let mut gc = RecordingChannel { inner: gc, sent: Vec::new() };
    let (g, e) = std::thread::scope(|scope| {
        let garbler = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            run_garbler(&workload.circuit, &workload.garbler_bits, &mut rng, config, &mut gc)
        });
        let evaluator = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
            run_evaluator_with(
                &workload.circuit,
                &workload.evaluator_bits,
                &mut rng,
                config,
                &mut ec,
            )
        });
        let g = garbler.join().expect("garbler thread panicked");
        let e = evaluator.join().expect("evaluator thread panicked");
        (g, e)
    });
    Ok((gc.sent, g?, e?))
}

/// The four chunk granularities the suite sweeps for a workload.
fn chunk_sizes(config: &SessionConfig, and_gates: usize) -> [usize; 4] {
    [
        1,
        (config.window.half() as usize).max(2),
        (config.window.sww_wires() as usize).max(2),
        and_gates + 7, // strictly more tables than exist: one giant chunk
    ]
}

#[test]
fn pipelined_slab_sessions_are_wire_identical_to_serial_hashmap_sessions() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let seed = 0xA11CE + kind as u64;
        let slab = SessionConfig::for_circuit(&w.circuit);
        // Same window/scheme/chunking, but raw-circuit HashMap store and
        // a one-buffer ring, which strictly alternates garbling and
        // shipping — the maximally different path.
        let hashmap = SessionConfig::new(slab.scheme, slab.window).with_pipeline_depth(1);
        for chunk in chunk_sizes(&slab, w.circuit.num_and_gates()) {
            let pipelined = slab.clone().with_chunk_tables(chunk);
            let serial = hashmap.clone().with_chunk_tables(chunk);
            let (bytes_a, ga, ea) = run_recorded(&w, &pipelined, seed).unwrap();
            let (bytes_b, gb, eb) = run_recorded(&w, &serial, seed).unwrap();
            assert_eq!(
                bytes_a,
                bytes_b,
                "{} chunk={chunk}: transcripts must be bit-identical",
                kind.name()
            );
            assert_eq!(ga.outputs, w.expected, "{} chunk={chunk}", kind.name());
            assert_eq!(ea.outputs, w.expected, "{} chunk={chunk}", kind.name());
            assert_eq!(gb.outputs, w.expected, "{} chunk={chunk}", kind.name());
            assert_eq!(ga.tables, gb.tables);
            assert_eq!(ga.table_chunks, gb.table_chunks);
            assert_eq!(ga.flushes, gb.flushes);
            assert_eq!(ea.tables, eb.tables, "{} chunk={chunk}", kind.name());
            assert_eq!(ea.table_chunks, eb.table_chunks, "{} chunk={chunk}", kind.name());
            // The two stores agree on the streaming residency too.
            assert_eq!(ga.peak_live_wires, gb.peak_live_wires, "{}", kind.name());
            // A strictly alternating garbler must never claim overlap.
            assert_eq!(gb.overlap_ratio, 0.0);
        }
    }
}

#[test]
fn tcp_loopback_matches_mem_channel_for_every_workload() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let seed = 0xBEEF + kind as u64;
        // Force a many-chunk stream so the pipelined path genuinely
        // interleaves compute with socket I/O.
        let chunk = (w.circuit.num_and_gates() / 8).max(1);
        let config = SessionConfig::for_circuit(&w.circuit).with_chunk_tables(chunk);
        let (g_tcp, e_tcp) =
            run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                .unwrap_or_else(|e| panic!("{}: tcp session failed: {e}", kind.name()));
        let (g_mem, e_mem) =
            run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                .unwrap();
        assert_eq!(g_tcp.outputs, w.expected, "{}", kind.name());
        assert_eq!(e_tcp.outputs, w.expected, "{}", kind.name());
        // The transcript must not depend on the transport.
        assert_eq!(g_tcp.bytes_sent, g_mem.bytes_sent, "{}", kind.name());
        assert_eq!(g_tcp.bytes_received, g_mem.bytes_received, "{}", kind.name());
        assert_eq!(g_tcp.table_chunks, g_mem.table_chunks, "{}", kind.name());
        assert_eq!(e_tcp.tables, e_mem.tables, "{}", kind.name());
        // Overlap accounting is well-formed on a real socket.
        for report in [&g_tcp, &e_tcp] {
            assert!(
                (0.0..=1.0).contains(&report.overlap_ratio),
                "{}: overlap {} out of range",
                kind.name(),
                report.overlap_ratio
            );
            assert!(report.compute_ns > 0, "{}: unmetered compute", kind.name());
        }
    }
}

#[test]
fn slab_garblers_stream_identical_tables_on_every_workload() {
    // The store-level half of the acceptance bar, without any
    // transport: slab and HashMap garblers emit the same chunks and the
    // same decode string for all eight workloads.
    use haac_core::lower_for_streaming;
    use haac_gc::StreamingGarbler;

    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let plan = lower_for_streaming(&w.circuit);
        let mut rng1 = StdRng::seed_from_u64(7 + kind as u64);
        let mut rng2 = StdRng::seed_from_u64(7 + kind as u64);
        let mut live = StreamingGarbler::new(&w.circuit, &mut rng1, HashScheme::Rekeyed);
        let mut slab = StreamingGarbler::with_plan(&plan.program, &mut rng2, HashScheme::Rekeyed);
        loop {
            let a = live.next_tables(509);
            let b = slab.next_tables(509);
            assert_eq!(a, b, "{}", kind.name());
            if a.is_none() {
                break;
            }
        }
        let lf = live.finish();
        let sf = slab.finish();
        assert_eq!(lf.output_decode, sf.output_decode, "{}", kind.name());
        assert_eq!(lf.crypto, sf.crypto, "{}", kind.name());
        assert_eq!(lf.peak_live_wires, sf.peak_live_wires, "{}", kind.name());
    }
}
