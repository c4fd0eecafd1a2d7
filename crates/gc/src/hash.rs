//! The gate hash `H` used by half-gate garbling, in both the secure
//! re-keyed form HAAC adopts and the legacy fixed-key form.
//!
//! Paper §2.1: *"the Half-Gate uses the gate index as the key to
//! construct the AES hash. An important step here is key expansion …
//! HAAC uses re-keying rather than fixed-key, processing full key
//! expansions at extra computational cost"* (measured at +27.5% per
//! half-gate). On AES-NI our re-keyed `garble_and` runs at 0.98–1.13×
//! the fixed-key rate on a 2-vCPU VM (`rekeyed_vs_fixed_key` in
//! `BENCH_gatecrypto.json`, gated by `bench_report`): the fused kernel
//! computes each round key next to the round that uses it, so the
//! expansion hides behind the AES rounds (a stored `aeskeygenassist`
//! schedule read 0.26–0.33× on the same VM).
//!
//! Both tweaks of an AND gate hash **two** labels each, so a
//! [`GateHash`] hashes *runs* of blocks that share one tweak and one key
//! expansion: [`hash_runs`](GateHash::hash_runs) takes runs of one
//! width (2 for the garbler and the OT-extension sender, 1 for the
//! evaluator and the receiver), [`pair`](GateHash::pair) and
//! [`hash`](GateHash::hash) are single runs, and
//! [`hash_batch`](GateHash::hash_batch) finds the runs of consecutive
//! equal tweaks in any tweak list. Every call is metered — key
//! expansions and AES block invocations accumulate in per-instance
//! [`CryptoCounters`], which is how the "2 expansions per AND gate"
//! invariant is verified rather than asserted.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aes::{active_backend, hash_runs as hash_rekeyed_runs, Aes128, AesBackend};
use crate::block::Block;

/// Tweak namespace for **base-OT** key derivation. Gate tweaks are
/// bounded by `2 · num_gates + 1 < 2^62`, so setting bit 62 keeps every
/// OT-derived pad disjoint from every gate hash under the same scheme.
pub const OT_BASE_TWEAK: u64 = 1 << 62;

/// Tweak namespace for **OT-extension** row hashing, disjoint from both
/// gate tweaks (< 2^62) and base-OT tweaks (bit 62): bit 63.
pub const OT_EXT_TWEAK: u64 = 1 << 63;

/// Which hash construction to use for AND gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashScheme {
    /// Re-keyed TCCR hash (Guo et al. 2020): `H(x, i) = AES_i(x) ⊕ x`,
    /// with a fresh key expansion of the tweak `i` per call. This is the
    /// scheme HAAC implements in hardware.
    #[default]
    Rekeyed,
    /// Legacy fixed-key hash (Bellare et al. 2013):
    /// `H(x, i) = AES_K(x ⊕ i) ⊕ x ⊕ i` under a circuit-global key `K`.
    /// Cheaper (no per-gate key expansion) but with known security loss;
    /// provided to reproduce the paper's 27.5% overhead comparison.
    FixedKey,
}

/// A snapshot of cipher work performed: the quantities HAAC's gate
/// engines pipeline (paper Fig. 2) and the denominators of every
/// gates/s claim in `BENCH_gatecrypto.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CryptoCounters {
    /// Full 176-byte AES key schedules run (the re-keying cost).
    pub key_expansions: u64,
    /// Single-block AES invocations.
    pub aes_blocks: u64,
}

impl CryptoCounters {
    /// Work performed since an earlier snapshot.
    pub fn since(self, earlier: CryptoCounters) -> CryptoCounters {
        CryptoCounters {
            key_expansions: self.key_expansions - earlier.key_expansions,
            aes_blocks: self.aes_blocks - earlier.aes_blocks,
        }
    }
}

/// The gate hash function, configured once per garbling session.
#[derive(Debug)]
pub struct GateHash {
    scheme: HashScheme,
    fixed: Aes128,
    key_expansions: AtomicU64,
    aes_blocks: AtomicU64,
}

impl Clone for GateHash {
    fn clone(&self) -> GateHash {
        GateHash {
            scheme: self.scheme,
            fixed: self.fixed,
            key_expansions: AtomicU64::new(self.key_expansions.load(Ordering::Relaxed)),
            aes_blocks: AtomicU64::new(self.aes_blocks.load(Ordering::Relaxed)),
        }
    }
}

/// A nothing-up-my-sleeve fixed key (digits of π in hex).
const FIXED_KEY: [u8; 16] = [
    0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70, 0x73, 0x44,
];

impl GateHash {
    /// Creates a hash in the given scheme on the process-wide
    /// [`active_backend`]. The fixed key is only used by
    /// [`HashScheme::FixedKey`].
    pub fn new(scheme: HashScheme) -> GateHash {
        GateHash::with_backend(scheme, active_backend())
    }

    /// Like [`GateHash::new`] but pinned to an explicit AES backend
    /// (portable fallback if unavailable) — for benches and equivalence
    /// tests.
    pub fn with_backend(scheme: HashScheme, backend: AesBackend) -> GateHash {
        GateHash {
            scheme,
            fixed: Aes128::with_backend(FIXED_KEY, backend),
            key_expansions: AtomicU64::new(0),
            aes_blocks: AtomicU64::new(0),
        }
    }

    /// The configured scheme.
    pub fn scheme(&self) -> HashScheme {
        self.scheme
    }

    /// The AES backend this hash dispatches to.
    pub fn backend(&self) -> AesBackend {
        self.fixed.backend()
    }

    /// Cipher-work counters accumulated by this instance so far.
    pub fn counters(&self) -> CryptoCounters {
        CryptoCounters {
            key_expansions: self.key_expansions.load(Ordering::Relaxed),
            aes_blocks: self.aes_blocks.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn meter(&self, expansions: u64, blocks: u64) {
        self.key_expansions.fetch_add(expansions, Ordering::Relaxed);
        self.aes_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Hashes a label under tweak `tweak` (`2·gate_index` for the A-side
    /// hashes, `2·gate_index + 1` for the B-side, per Fig. 2) — a batch
    /// of one run of one block.
    pub fn hash(&self, x: Block, tweak: u64) -> Block {
        let mut out = [x];
        self.hash_runs(&mut out, 1, |_| tweak);
        out[0]
    }

    /// Hashes two labels under **one** tweak with a single key expansion
    /// — the natural unit of a half gate, where each tweak covers both
    /// labels of one input wire. Equals `(hash(x0, t), hash(x1, t))`.
    pub fn pair(&self, x0: Block, x1: Block, tweak: u64) -> (Block, Block) {
        let mut out = [x0, x1];
        self.hash_runs(&mut out, 2, |_| tweak);
        (out[0], out[1])
    }

    /// Hashes `blocks` in place, in runs of `width` consecutive blocks
    /// that share one tweak: `blocks[width·r + w]` becomes
    /// `hash(blocks[width·r + w], tweak(r))`, with **one key expansion
    /// per run**. The two shapes the gate ops and OT extension use —
    /// `width` 2 (garbler, extension sender) and 1 (evaluator, extension
    /// receiver) — run the fused AES-NI kernel. Tweaks are drawn from
    /// `tweak` as the kernel needs them, so callers need not materialise
    /// a tweak per lane.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or does not divide `blocks.len()`.
    pub fn hash_runs(&self, blocks: &mut [Block], width: usize, tweak: impl Fn(usize) -> u64) {
        /// Runs (re-keyed) or blocks (fixed-key) handed to the cipher
        /// per call, staged on the stack.
        const CHUNK: usize = 16;
        assert!(width > 0, "runs hold at least one block");
        assert_eq!(
            blocks.len() % width,
            0,
            "{} blocks do not split into runs of {width}",
            blocks.len()
        );
        let backend = self.fixed.backend();
        match self.scheme {
            HashScheme::Rekeyed => {
                let mut tweaks = [0u64; CHUNK];
                for (chunk, lanes) in blocks.chunks_mut(CHUNK * width).enumerate() {
                    let ts = &mut tweaks[..lanes.len() / width];
                    for (r, t) in ts.iter_mut().enumerate() {
                        *t = tweak(chunk * CHUNK + r);
                    }
                    hash_rekeyed_runs(backend, ts, width, lanes);
                }
                self.meter((blocks.len() / width) as u64, blocks.len() as u64);
            }
            HashScheme::FixedKey => {
                // H(x, t) = AES_K(x ⊕ t) ⊕ x ⊕ t: tweak every run in
                // place, then encrypt and fold the cipher input back in.
                for (r, run) in blocks.chunks_mut(width).enumerate() {
                    let t = Block::from(u128::from(tweak(r)));
                    for b in run {
                        *b ^= t;
                    }
                }
                let mut inputs = [Block::ZERO; CHUNK];
                for lanes in blocks.chunks_mut(CHUNK) {
                    inputs[..lanes.len()].copy_from_slice(lanes);
                    self.fixed.encrypt_blocks(lanes);
                    for (b, &input) in lanes.iter_mut().zip(&inputs) {
                        *b ^= input;
                    }
                }
                self.meter(0, blocks.len() as u64);
            }
        }
    }

    /// Hashes `xs[i]` under `tweaks[i]` into `out[i]`. Runs of
    /// **consecutive equal tweaks share one key expansion**, which is
    /// what brings a re-keyed AND gate from four expansions down to two.
    /// A batch whose runs all have one width goes through
    /// [`hash_runs`](GateHash::hash_runs) in one call; any other shape
    /// run by run. Equivalent to calling [`hash`](GateHash::hash) per
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if the three slices' lengths differ.
    pub fn hash_batch(&self, xs: &[Block], tweaks: &[u64], out: &mut [Block]) {
        assert_eq!(xs.len(), tweaks.len(), "one tweak per lane");
        assert_eq!(xs.len(), out.len(), "one output per lane");
        out.copy_from_slice(xs);
        if xs.is_empty() {
            return;
        }
        let run_len =
            |start: usize| tweaks[start..].iter().take_while(|&&t| t == tweaks[start]).count();
        let width = run_len(0);
        if (0..tweaks.len()).step_by(width).all(|start| run_len(start) == width) {
            self.hash_runs(out, width, |r| tweaks[r * width]);
            return;
        }
        let mut start = 0;
        while start < out.len() {
            let len = run_len(start);
            self.hash_runs(&mut out[start..start + len], len, |_| tweaks[start]);
            start += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rekeyed_hash_depends_on_tweak() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let x = Block::from(0x1234_5678u128);
        assert_ne!(h.hash(x, 0), h.hash(x, 1));
        assert_eq!(h.hash(x, 7), h.hash(x, 7));
    }

    #[test]
    fn fixed_key_hash_depends_on_tweak() {
        let h = GateHash::new(HashScheme::FixedKey);
        let x = Block::from(0xCAFEu128);
        assert_ne!(h.hash(x, 2), h.hash(x, 3));
    }

    #[test]
    fn schemes_differ() {
        let rk = GateHash::new(HashScheme::Rekeyed);
        let fk = GateHash::new(HashScheme::FixedKey);
        let x = Block::from(0xABCDu128);
        assert_ne!(rk.hash(x, 5), fk.hash(x, 5));
    }

    #[test]
    fn hash_is_not_identity_or_constant() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let a = h.hash(Block::ZERO, 0);
        let b = h.hash(Block::from(1u128), 0);
        assert_ne!(a, Block::ZERO);
        assert_ne!(a, b);
    }

    #[test]
    fn pair_equals_two_hashes_with_one_expansion() {
        for scheme in [HashScheme::Rekeyed, HashScheme::FixedKey] {
            let h = GateHash::new(scheme);
            let x0 = Block::from(0x1111u128);
            let x1 = Block::from(0x2222u128);
            let before = h.counters();
            let (p0, p1) = h.pair(x0, x1, 42);
            let pair_cost = h.counters().since(before);
            assert_eq!(p0, h.hash(x0, 42), "{scheme:?}");
            assert_eq!(p1, h.hash(x1, 42), "{scheme:?}");
            let expected_expansions = match scheme {
                HashScheme::Rekeyed => 1,
                HashScheme::FixedKey => 0,
            };
            assert_eq!(
                pair_cost,
                CryptoCounters { key_expansions: expected_expansions, aes_blocks: 2 },
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn hash_batch_equals_sequential_hash() {
        for scheme in [HashScheme::Rekeyed, HashScheme::FixedKey] {
            let h = GateHash::new(scheme);
            for len in [0usize, 1, 2, 3, 4, 7, 8, 9, 16, 31] {
                let xs: Vec<Block> = (0..len as u128).map(|i| Block::from(i * 7 + 1)).collect();
                let tweaks: Vec<u64> = (0..len as u64).map(|i| i / 2).collect();
                let mut out = vec![Block::ZERO; len];
                h.hash_batch(&xs, &tweaks, &mut out);
                for i in 0..len {
                    assert_eq!(out[i], h.hash(xs[i], tweaks[i]), "{scheme:?} len={len} lane={i}");
                }
            }
        }
    }

    #[test]
    fn batch_dedupes_consecutive_tweaks() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let xs = [Block::from(1u128), Block::from(2u128), Block::from(3u128), Block::from(4u128)];
        let before = h.counters();
        let mut out = [Block::ZERO; 4];
        // The AND-gate shape: [j0, j0, j1, j1] → exactly 2 expansions.
        h.hash_batch(&xs, &[10, 10, 11, 11], &mut out);
        let cost = h.counters().since(before);
        assert_eq!(cost, CryptoCounters { key_expansions: 2, aes_blocks: 4 });
    }

    #[test]
    fn counters_accumulate_across_calls() {
        let h = GateHash::new(HashScheme::Rekeyed);
        h.hash(Block::ZERO, 1);
        h.hash(Block::ZERO, 2);
        assert_eq!(h.counters(), CryptoCounters { key_expansions: 2, aes_blocks: 2 });
        let h2 = h.clone();
        assert_eq!(h2.counters(), h.counters());
    }
}
