//! x86_64 AES-NI backend: an `aesenclast` key schedule, `aesenc` round
//! pipelines, and the fused re-keyed gate hash.
//!
//! This is the software mirror of HAAC's gate-engine AES pipeline — and
//! exactly what the paper's EMP/CPU baseline uses. `aesenc` has a
//! latency of 3–8 cycles depending on the core and issues 1–2 per
//! cycle, so the kernels here keep several independent blocks in flight
//! ([`encrypt_lanes`]/[`encrypt_blocks`]) the way HAAC keeps its gate
//! engines fed.
//!
//! Under re-keying every tweak is a fresh AES key, so the key schedule
//! sits on the critical path of every gate. [`hash_runs`] computes each
//! round key on the fly (`pshufb` + `aesenclast`, see
//! [`next_round_key`]) and feeds it straight to `aesenc` on that tweak's
//! blocks, with [`CHAINS`] tweaks' schedule chains interleaved in
//! registers: no schedule is ever stored or reloaded.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "aes")]` (plus `ssse3`
//! where it emits `pshufb`) and must only be called after [`available`]
//! returned true — the facade's backend dispatch guarantees that.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi64_si128, _mm_loadu_si128,
    _mm_set1_epi32, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

use super::RoundKeys;
use crate::block::Block;

/// Whether this backend can run on the current CPU. The key schedule
/// needs `pshufb` (SSSE3) besides the AES instructions.
pub fn available() -> bool {
    is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
}

/// The AES-128 round constants, rounds 1..=10.
const RCON: [i32; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

/// Tweaks whose schedule chains [`hash_runs`] keeps interleaved. Each
/// round-key step is a ~6-cycle dependency chain (`pshufb` →
/// `aesenclast` → XOR); four chains plus their 4–8 block states fill the
/// 16 XMM registers without spilling.
const CHAINS: usize = 4;

#[inline(always)]
unsafe fn load_rk(rks: &RoundKeys, round: usize) -> __m128i {
    _mm_loadu_si128(rks[round].as_ptr() as *const __m128i)
}

#[inline(always)]
unsafe fn load_block(block: &Block) -> __m128i {
    _mm_loadu_si128(block as *const Block as *const __m128i)
}

#[inline(always)]
unsafe fn store_block(block: &mut Block, state: __m128i) {
    _mm_storeu_si128(block as *mut Block as *mut __m128i, state);
}

/// One step of the AES-128 key schedule: round key *r* from round key
/// *r − 1*, `rcon` holding the round constant in every 32-bit word.
///
/// `pshufb` copies `RotWord(w3)` into all four columns. With equal
/// columns `ShiftRows` is the identity, so `aesenclast` against `rcon`
/// leaves `SubWord(RotWord(w3)) ⊕ rcon` in every word. Two shifted XORs
/// turn `[w0, w1, w2, w3]` into its prefix XOR, and XOR-ing the two
/// gives the next round key.
///
/// # Safety
///
/// Requires AES-NI and SSSE3.
#[target_feature(enable = "aes,ssse3")]
#[inline]
unsafe fn next_round_key(key: __m128i, rcon: __m128i) -> __m128i {
    let rot_word = _mm_shuffle_epi8(key, _mm_set1_epi32(0x0c0f_0e0d));
    let sub_word = _mm_aesenclast_si128(rot_word, rcon);
    let key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    let key = _mm_xor_si128(key, _mm_slli_si128(key, 8));
    _mm_xor_si128(key, sub_word)
}

/// AES-128 key schedule from the same `aesenclast` step the fused hash
/// uses. Produces byte-identical round keys to the portable schedule.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 ([`available`] must have returned true).
#[target_feature(enable = "aes,ssse3")]
pub unsafe fn expand_key(key: [u8; 16]) -> RoundKeys {
    let mut out = [[0u8; 16]; 11];
    let mut k = _mm_loadu_si128(key.as_ptr() as *const __m128i);
    _mm_storeu_si128(out[0].as_mut_ptr() as *mut __m128i, k);
    for (rk, &rcon) in out[1..].iter_mut().zip(&RCON) {
        k = next_round_key(k, _mm_set1_epi32(rcon));
        _mm_storeu_si128(rk.as_mut_ptr() as *mut __m128i, k);
    }
    out
}

/// The re-keyed hash `H(x, t) = AES_t(x) ⊕ x`, in place, for runs of `W`
/// blocks sharing one tweak: `blocks[W·r + w]` is hashed under
/// `tweaks[r]`, whose 64 bits are the little-endian low half of the
/// AES key. Tweaks go through the kernel [`CHAINS`] at a time.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 ([`available`] must have returned true).
///
/// # Panics
///
/// Panics if `blocks.len() != W · tweaks.len()`.
#[target_feature(enable = "aes,ssse3")]
pub unsafe fn hash_runs<const W: usize>(tweaks: &[u64], blocks: &mut [Block]) {
    assert_eq!(blocks.len(), W * tweaks.len(), "{W} blocks per tweak");
    let mut groups = blocks.chunks_exact_mut(CHAINS * W);
    let mut tweak_groups = tweaks.chunks_exact(CHAINS);
    for (group, ts) in groups.by_ref().zip(tweak_groups.by_ref()) {
        hash_group::<CHAINS, W>(ts, group);
    }
    let (ts, rest) = (tweak_groups.remainder(), groups.into_remainder());
    match ts.len() {
        0 => {}
        1 => hash_group::<1, W>(ts, rest),
        2 => hash_group::<2, W>(ts, rest),
        3 => hash_group::<3, W>(ts, rest),
        _ => unreachable!("remainder of a {CHAINS}-tweak chunking"),
    }
}

/// The fused kernel: `T` tweaks × `W` blocks, every round key computed
/// on the fly and used at once by `aesenc`.
///
/// # Safety
///
/// Requires AES-NI and SSSE3.
#[target_feature(enable = "aes,ssse3")]
#[inline]
unsafe fn hash_group<const T: usize, const W: usize>(tweaks: &[u64], blocks: &mut [Block]) {
    assert!(tweaks.len() == T && blocks.len() == T * W);
    let mut keys = [_mm_setzero_si128(); T];
    let mut state = [[_mm_setzero_si128(); W]; T];
    for t in 0..T {
        keys[t] = _mm_cvtsi64_si128(tweaks[t] as i64);
        for w in 0..W {
            state[t][w] = _mm_xor_si128(load_block(&blocks[t * W + w]), keys[t]);
        }
    }
    for &rcon in &RCON[..9] {
        let rcon = _mm_set1_epi32(rcon);
        for t in 0..T {
            keys[t] = next_round_key(keys[t], rcon);
            for s in state[t].iter_mut() {
                *s = _mm_aesenc_si128(*s, keys[t]);
            }
        }
    }
    let rcon = _mm_set1_epi32(RCON[9]);
    for t in 0..T {
        keys[t] = next_round_key(keys[t], rcon);
        for w in 0..W {
            let block = &mut blocks[t * W + w];
            let cipher = _mm_aesenclast_si128(state[t][w], keys[t]);
            store_block(block, _mm_xor_si128(cipher, load_block(block)));
        }
    }
}

/// Encrypts up to [`super::MAX_LANES`] independent blocks in place, each
/// under its own schedule, with the round loop interleaved across lanes
/// so the superscalar AES unit pipelines them.
///
/// # Safety
///
/// Requires AES-NI; `schedules.len()` must equal `blocks.len()` and be
/// at most [`super::MAX_LANES`].
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_lanes(schedules: &[&RoundKeys], blocks: &mut [Block]) {
    debug_assert_eq!(schedules.len(), blocks.len());
    debug_assert!(blocks.len() <= super::MAX_LANES);
    let n = blocks.len();
    let mut state = [_mm_setzero_si128(); super::MAX_LANES];
    for lane in 0..n {
        state[lane] = _mm_xor_si128(load_block(&blocks[lane]), load_rk(schedules[lane], 0));
    }
    for round in 1..10 {
        for lane in 0..n {
            state[lane] = _mm_aesenc_si128(state[lane], load_rk(schedules[lane], round));
        }
    }
    for lane in 0..n {
        state[lane] = _mm_aesenclast_si128(state[lane], load_rk(schedules[lane], 10));
        store_block(&mut blocks[lane], state[lane]);
    }
}

/// Encrypts a whole slice of blocks in place under one schedule,
/// [`super::MAX_LANES`] at a time, loading each round key once per
/// group.
///
/// # Safety
///
/// Requires AES-NI.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_blocks(rks: &RoundKeys, blocks: &mut [Block]) {
    let mut keys = [load_rk(rks, 0); 11];
    for (round, key) in keys.iter_mut().enumerate() {
        *key = load_rk(rks, round);
    }
    for group in blocks.chunks_mut(super::MAX_LANES) {
        let n = group.len();
        let mut state = [keys[0]; super::MAX_LANES];
        for lane in 0..n {
            state[lane] = _mm_xor_si128(load_block(&group[lane]), keys[0]);
        }
        for key in &keys[1..10] {
            for s in state.iter_mut().take(n) {
                *s = _mm_aesenc_si128(*s, *key);
            }
        }
        for lane in 0..n {
            state[lane] = _mm_aesenclast_si128(state[lane], keys[10]);
            store_block(&mut group[lane], state[lane]);
        }
    }
}
