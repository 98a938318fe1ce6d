//! Client inputs, generated before anything is timed.
//!
//! Every round is a pure function of `(seed, round)`: the same batch
//! `deploy::build_client_round` builds, produced here through
//! `onion::wrap_into_with` (byte-identical at equal RNG state, but on
//! the table-accelerated scalar multiplication instead of the reference
//! ladder) and spread over every core. [`check_against_deploy`] holds
//! the two generators byte-for-byte equal on each round kind.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use vuvuzela::core::server::RoundKind;
use vuvuzela::crypto::onion::{self, LayerKey, PrecomputedServer};
use vuvuzela::crypto::sha256::Sha256;
use vuvuzela::crypto::x25519::{Keypair, PublicKey};
use vuvuzela::deploy::{build_client_round, DeploymentConfig, ScheduleEntry};
use vuvuzela::wire::conversation::ExchangeRequest;
use vuvuzela::wire::deaddrop::{DeadDropId, InvitationDropIndex};
use vuvuzela::wire::dialing::{DialRequest, SealedInvitation};
use vuvuzela::wire::{
    BatchFrame, Frame, LinkId, RoundId, RoundType, DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN,
    SEALED_MESSAGE_LEN,
};

/// `deploy`'s domain separator for the client's per-round RNG
/// (a private constant there; [`check_against_deploy`] fails the run if
/// the two ever disagree).
const CLIENT_RNG_DOMAIN: u64 = 0xC11E_47B0_0000_0000;

/// One round's client batch plus what is needed to verify its replies.
pub struct ClientBatch {
    pub round: u64,
    pub entry: ScheduleEntry,
    /// Onion width (= frame stride).
    pub width: usize,
    /// The onions, back to back, in feed order.
    pub payload: Vec<u8>,
    /// Reply-layer keys per conversation onion.
    pub keys: Vec<Vec<LayerKey>>,
    /// The sealed message each conversation onion deposited.
    pub messages: Vec<Vec<u8>>,
    /// The real drop (1-based) each dialing onion's invitation targets.
    pub dial_drops: Vec<u32>,
}

impl ClientBatch {
    pub fn count(&self) -> usize {
        self.payload.len() / self.width
    }

    pub fn kind(&self) -> RoundKind {
        match self.entry {
            ScheduleEntry::Conversation { .. } => RoundKind::Conversation,
            ScheduleEntry::Dialing { drops, .. } => RoundKind::Dialing { num_drops: drops },
        }
    }

    pub fn is_dialing(&self) -> bool {
        matches!(self.entry, ScheduleEntry::Dialing { .. })
    }

    /// The onion sharing a dead drop with onion `i` (pairs come first,
    /// as `build_client_round` lays them out).
    pub fn partner(&self, i: usize) -> Option<usize> {
        match self.entry {
            ScheduleEntry::Conversation { pairs, .. } if i < 2 * pairs as usize => Some(i ^ 1),
            _ => None,
        }
    }

    /// The forward frame the client sends to the entry.
    pub fn frame(&self) -> Frame {
        let (round_type, num_drops) = match self.entry {
            ScheduleEntry::Conversation { .. } => (RoundType::Conversation, 0),
            ScheduleEntry::Dialing { drops, .. } => (RoundType::Dialing, drops),
        };
        Frame::Batch(BatchFrame {
            link: LinkId::Clients,
            round: RoundId(self.round),
            round_type,
            num_drops,
            backward: false,
            stride: self.width as u32,
            width: self.width as u32,
            count: self.count() as u32,
            payload: self.payload.clone(),
            trailer: Vec::new(),
        })
    }
}

fn generate_round(
    cfg: &DeploymentConfig,
    servers: &[PrecomputedServer],
    round: u64,
) -> ClientBatch {
    let chain_len = servers.len();
    let mut rng = StdRng::seed_from_u64((cfg.seed ^ CLIENT_RNG_DOMAIN).wrapping_add(round));
    let entry = cfg.schedule[round as usize];
    let payload_len = match entry {
        ScheduleEntry::Conversation { .. } => EXCHANGE_REQUEST_LEN,
        ScheduleEntry::Dialing { .. } => DIAL_REQUEST_LEN,
    };
    let width = onion::wrapped_len(payload_len, chain_len);
    let offset = 32 * chain_len;
    let mut batch = ClientBatch {
        round,
        entry,
        width,
        payload: Vec::new(),
        keys: Vec::new(),
        messages: Vec::new(),
        dial_drops: Vec::new(),
    };
    let exchange = |rng: &mut StdRng, batch: &mut ClientBatch, drop: DeadDropId| {
        let mut sealed_message = vec![0u8; SEALED_MESSAGE_LEN];
        rng.fill_bytes(&mut sealed_message);
        let start = batch.payload.len();
        batch.payload.resize(start + width, 0);
        let slot = &mut batch.payload[start..];
        ExchangeRequest {
            drop,
            sealed_message: sealed_message.clone(),
        }
        .encode_into(&mut slot[offset..]);
        batch.keys.push(onion::wrap_into_with(
            rng,
            servers,
            round,
            slot,
            payload_len,
        ));
        batch.messages.push(sealed_message);
    };
    match entry {
        ScheduleEntry::Conversation { pairs, singles } => {
            for _ in 0..pairs {
                let mut id = [0u8; 16];
                rng.fill_bytes(&mut id);
                exchange(&mut rng, &mut batch, DeadDropId(id));
                exchange(&mut rng, &mut batch, DeadDropId(id));
            }
            for _ in 0..singles {
                let mut id = [0u8; 16];
                rng.fill_bytes(&mut id);
                exchange(&mut rng, &mut batch, DeadDropId(id));
            }
        }
        ScheduleEntry::Dialing { dials, drops } => {
            for _ in 0..dials {
                let caller = Keypair::generate(&mut rng);
                let callee = Keypair::generate(&mut rng);
                let drop = InvitationDropIndex::for_recipient(&callee.public, drops);
                let request = DialRequest {
                    drop,
                    invitation: SealedInvitation::seal(&mut rng, &caller.public, &callee.public),
                };
                let start = batch.payload.len();
                batch.payload.resize(start + width, 0);
                let slot = &mut batch.payload[start..];
                request.encode_into(&mut slot[offset..]);
                onion::wrap_into_with(&mut rng, servers, round, slot, payload_len);
                batch.dial_drops.push(drop.0);
            }
        }
    }
    batch
}

/// Generates rounds `0..cfg.schedule.len()` on `threads` threads.
pub fn generate(cfg: &DeploymentConfig, pks: &[PublicKey], threads: usize) -> Vec<ClientBatch> {
    let rounds = cfg.schedule.len();
    let threads = threads.clamp(1, rounds.max(1));
    let mut per_thread: Vec<Vec<ClientBatch>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let servers: Vec<PrecomputedServer> =
                        pks.iter().map(|pk| PrecomputedServer::new(*pk)).collect();
                    (t..rounds)
                        .step_by(threads)
                        .map(|r| generate_round(cfg, &servers, r as u64))
                        .collect::<Vec<ClientBatch>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input generator thread panicked"))
            .collect()
    });
    let mut iters: Vec<_> = per_thread.iter_mut().map(|v| v.drain(..)).collect();
    (0..rounds)
        .map(|r| iters[r % threads].next().expect("every round generated"))
        .collect()
}

/// SHA-256 over every generated onion, in round order.
pub fn digest(batches: &[ClientBatch]) -> String {
    let mut hasher = Sha256::new();
    for batch in batches {
        hasher.update(&batch.round.to_le_bytes());
        hasher.update(&batch.payload);
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Rebuilds `rounds` with `deploy::build_client_round` (the reference
/// generator, timed: it is the client's request-build cost) and checks
/// the pre-generated batches are byte-identical. Returns the seconds
/// spent building, or the first mismatch.
pub fn check_against_deploy(
    cfg: &DeploymentConfig,
    pks: &[PublicKey],
    batches: &[ClientBatch],
    rounds: std::ops::Range<usize>,
) -> Result<f64, String> {
    let mut secs = 0.0;
    for r in rounds {
        let clock = std::time::Instant::now();
        let reference = std::hint::black_box(build_client_round(cfg, pks, r as u64));
        secs += clock.elapsed().as_secs_f64();
        let batch = &batches[r];
        let keys_match = batch.is_dialing()
            || reference
                .keys
                .iter()
                .zip(&batch.keys)
                .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.0 == y.0));
        if reference.onions.concat() != batch.payload
            || !keys_match
            || (!batch.is_dialing() && reference.messages != batch.messages)
        {
            return Err(format!(
                "round {r}: pre-generated inputs differ from deploy::build_client_round"
            ));
        }
    }
    Ok(secs)
}
