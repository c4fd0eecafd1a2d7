//! The input phase: delivering the evaluator's input labels by
//! oblivious transfer, either one Chou–Orlandi-style base OT per input
//! or ~κ base OTs bootstrapping an IKNP-style extension. Both session
//! drivers call in here between the handshake and the table stream.

use haac_gc::Block;
use rand::Rng;

use crate::channel::Channel;
use crate::error::RuntimeError;
#[cfg(feature = "insecure-ot")]
use {
    crate::session::expect_message,
    crate::wire::{write_message, Message},
    std::time::Instant,
};

/// Accounting for the input-label OT phase, whichever mode ran.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OtOutcome {
    /// Evaluator-input labels delivered.
    pub(crate) transfers: u64,
    /// Public-key OTs performed (per input in base mode, the ~κ
    /// bootstrap in extended mode).
    pub(crate) base_ots: u64,
    /// Hash-evaluated extension OTs performed (0 in base mode).
    pub(crate) ext_ots: u64,
    /// Nanoseconds blocked waiting for the peer's OT messages.
    pub(crate) io_stall_ns: u64,
}

/// Maps a typed OT-layer failure to the session's protocol error (it
/// reached us from the trust boundary: every [`haac_gc::OtError`] here
/// is caused by peer-sent bytes).
#[cfg(feature = "insecure-ot")]
fn ot_protocol_error(e: haac_gc::OtError) -> RuntimeError {
    RuntimeError::protocol(format!("OT: {e}"))
}

#[cfg(feature = "insecure-ot")]
pub(crate) fn ot_send<C: Channel + ?Sized, R: Rng + ?Sized>(
    pairs: &[(Block, Block)],
    rng: &mut R,
    channel: &mut C,
) -> Result<OtOutcome, RuntimeError> {
    use haac_gc::ot::base::OtSender;

    let sender = OtSender::new(rng);
    write_message(
        channel,
        &Message::OtSetup { point: sender.public_point(), nonce: sender.nonce().into() },
    )?;
    channel.flush()?;

    let waited = Instant::now();
    let Message::OtPoints(points) = expect_message(channel, "OtPoints")? else { unreachable!() };
    let io_stall_ns = waited.elapsed().as_nanos() as u64;
    if points.len() != pairs.len() {
        return Err(RuntimeError::protocol("one OT point per evaluator input required"));
    }
    // `encrypt` rejects out-of-group points itself: a zero point would
    // collapse both branch keys to a public value, handing the peer
    // both labels (and Δ).
    let cts = sender.encrypt(&points, pairs).map_err(ot_protocol_error)?;
    write_message(channel, &Message::OtCiphertexts(cts))?;
    Ok(OtOutcome {
        transfers: pairs.len() as u64,
        base_ots: pairs.len() as u64,
        ext_ots: 0,
        io_stall_ns,
    })
}

#[cfg(feature = "insecure-ot")]
pub(crate) fn ot_receive<C: Channel + ?Sized, R: Rng + ?Sized>(
    evaluator_bits: &[bool],
    rng: &mut R,
    channel: &mut C,
) -> Result<(Vec<Block>, OtOutcome), RuntimeError> {
    use haac_gc::ot::base::OtReceiver;

    let waited = Instant::now();
    let Message::OtSetup { point, nonce } = expect_message(channel, "OtSetup")? else {
        unreachable!()
    };
    let mut io_stall_ns = waited.elapsed().as_nanos() as u64;
    // `new` rejects an out-of-group setup point itself: a zero S would
    // make R_i = 0 exactly when c_i = 1, leaking every choice bit.
    let receiver = OtReceiver::new(rng, point, Block::from(nonce), evaluator_bits)
        .map_err(ot_protocol_error)?;
    write_message(channel, &Message::OtPoints(receiver.blinded_points()))?;
    channel.flush()?;

    let waited = Instant::now();
    let Message::OtCiphertexts(pairs) = expect_message(channel, "OtCiphertexts")? else {
        unreachable!()
    };
    io_stall_ns += waited.elapsed().as_nanos() as u64;
    let labels = receiver.decrypt(&pairs).map_err(ot_protocol_error)?;
    Ok((
        labels,
        OtOutcome {
            transfers: evaluator_bits.len() as u64,
            base_ots: evaluator_bits.len() as u64,
            ext_ots: 0,
            io_stall_ns,
        },
    ))
}

/// Garbler side of the IKNP-style extension: ~κ base OTs with the roles
/// *reversed* (this side receives, choosing with its secret κ-bit
/// string) bootstrap per-column PRG seeds, then every evaluator input
/// label ships under one batched hash of a transposed matrix row — no
/// public-key work scales with the input count.
#[cfg(feature = "insecure-ot")]
pub(crate) fn ot_send_extended<C: Channel + ?Sized, R: Rng + ?Sized>(
    pairs: &[(Block, Block)],
    rng: &mut R,
    channel: &mut C,
) -> Result<OtOutcome, RuntimeError> {
    use haac_gc::ot::base::OtReceiver;
    use haac_gc::{OtExtSender, OT_EXT_KAPPA};

    let ext = OtExtSender::new(rng);

    // Base-OT bootstrap, reversed: the evaluator opens as base-OT
    // sender and this side receives one PRG seed per extension column.
    let waited = Instant::now();
    let Message::OtSetup { point, nonce } = expect_message(channel, "OtSetup")? else {
        unreachable!()
    };
    let mut io_stall_ns = waited.elapsed().as_nanos() as u64;
    let receiver = OtReceiver::new(rng, point, Block::from(nonce), ext.choice_bits())
        .map_err(ot_protocol_error)?;
    write_message(channel, &Message::OtPoints(receiver.blinded_points()))?;
    channel.flush()?;

    let waited = Instant::now();
    let Message::OtCiphertexts(cts) = expect_message(channel, "OtCiphertexts")? else {
        unreachable!()
    };
    io_stall_ns += waited.elapsed().as_nanos() as u64;
    if cts.len() != OT_EXT_KAPPA {
        return Err(RuntimeError::protocol("one base-OT seed pair per extension column required"));
    }
    let seeds = receiver.decrypt(&cts).map_err(ot_protocol_error)?;

    let waited = Instant::now();
    let Message::OtExtMatrix(u_matrix) = expect_message(channel, "OtExtMatrix")? else {
        unreachable!()
    };
    io_stall_ns += waited.elapsed().as_nanos() as u64;
    let masked = ext.process(&seeds, &u_matrix, pairs).map_err(ot_protocol_error)?;
    // Unflushed on purpose: the streaming phase's first flush carries
    // the masked labels, exactly like the base path's ciphertexts.
    write_message(channel, &Message::OtExtLabels(masked))?;
    Ok(OtOutcome {
        transfers: pairs.len() as u64,
        base_ots: OT_EXT_KAPPA as u64,
        ext_ots: pairs.len() as u64,
        io_stall_ns,
    })
}

/// Evaluator side of the extension: this side plays base-OT *sender*
/// (delivering seed pairs), ships the masked choice matrix, and unmasks
/// its chosen labels from one hash per input.
#[cfg(feature = "insecure-ot")]
pub(crate) fn ot_receive_extended<C: Channel + ?Sized, R: Rng + ?Sized>(
    evaluator_bits: &[bool],
    rng: &mut R,
    channel: &mut C,
) -> Result<(Vec<Block>, OtOutcome), RuntimeError> {
    use haac_gc::ot::base::OtSender;
    use haac_gc::{OtExtReceiver, OT_EXT_KAPPA};

    let mut ext = OtExtReceiver::new(rng, evaluator_bits);

    let sender = OtSender::new(rng);
    write_message(
        channel,
        &Message::OtSetup { point: sender.public_point(), nonce: sender.nonce().into() },
    )?;
    channel.flush()?;

    let waited = Instant::now();
    let Message::OtPoints(points) = expect_message(channel, "OtPoints")? else { unreachable!() };
    let mut io_stall_ns = waited.elapsed().as_nanos() as u64;
    if points.len() != OT_EXT_KAPPA {
        return Err(RuntimeError::protocol("one base-OT point per extension column required"));
    }
    let cts = sender.encrypt(&points, ext.seed_pairs()).map_err(ot_protocol_error)?;
    write_message(channel, &Message::OtCiphertexts(cts))?;
    write_message(channel, &Message::OtExtMatrix(ext.u_matrix()))?;
    channel.flush()?;

    let waited = Instant::now();
    let Message::OtExtLabels(masked) = expect_message(channel, "OtExtLabels")? else {
        unreachable!()
    };
    io_stall_ns += waited.elapsed().as_nanos() as u64;
    let labels = ext.decrypt(&masked).map_err(ot_protocol_error)?;
    Ok((
        labels,
        OtOutcome {
            transfers: evaluator_bits.len() as u64,
            base_ots: OT_EXT_KAPPA as u64,
            ext_ots: evaluator_bits.len() as u64,
            io_stall_ns,
        },
    ))
}

#[cfg(not(feature = "insecure-ot"))]
pub(crate) fn ot_send<C: Channel + ?Sized, R: Rng + ?Sized>(
    _pairs: &[(Block, Block)],
    _rng: &mut R,
    _channel: &mut C,
) -> Result<OtOutcome, RuntimeError> {
    Err(RuntimeError::protocol(
        "two-party sessions need a base OT; enable the `insecure-ot` feature",
    ))
}

#[cfg(not(feature = "insecure-ot"))]
pub(crate) fn ot_receive<C: Channel + ?Sized, R: Rng + ?Sized>(
    _evaluator_bits: &[bool],
    _rng: &mut R,
    _channel: &mut C,
) -> Result<(Vec<Block>, OtOutcome), RuntimeError> {
    Err(RuntimeError::protocol(
        "two-party sessions need a base OT; enable the `insecure-ot` feature",
    ))
}

#[cfg(not(feature = "insecure-ot"))]
pub(crate) fn ot_send_extended<C: Channel + ?Sized, R: Rng + ?Sized>(
    _pairs: &[(Block, Block)],
    _rng: &mut R,
    _channel: &mut C,
) -> Result<OtOutcome, RuntimeError> {
    Err(RuntimeError::protocol(
        "two-party sessions need a base OT; enable the `insecure-ot` feature",
    ))
}

#[cfg(not(feature = "insecure-ot"))]
pub(crate) fn ot_receive_extended<C: Channel + ?Sized, R: Rng + ?Sized>(
    _evaluator_bits: &[bool],
    _rng: &mut R,
    _channel: &mut C,
) -> Result<(Vec<Block>, OtOutcome), RuntimeError> {
    Err(RuntimeError::protocol(
        "two-party sessions need a base OT; enable the `insecure-ot` feature",
    ))
}
