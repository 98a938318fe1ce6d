//! The correctness gate: every reply the chain returned is checked
//! against what its client sent, and the leading rounds are diffed
//! byte-for-byte against the in-process sequential `Chain`.

use crate::inputs::ClientBatch;
use std::time::Instant;
use vuvuzela::core::chain::Chain;
use vuvuzela::core::node::RoundTrailer;
use vuvuzela::core::SystemConfig;
use vuvuzela::crypto::onion;
use vuvuzela::wire::BatchFrame;

/// The replies of a backward frame, one slice per client onion.
pub fn replies(back: &BatchFrame) -> Vec<&[u8]> {
    let stride = (back.stride as usize).max(1);
    back.payload
        .chunks(stride)
        .map(|slot| &slot[..back.width as usize])
        .collect()
}

/// What checking one round found.
#[derive(Default)]
pub struct RoundCheck {
    /// Client messages that failed their check.
    pub failed: usize,
    /// Seconds spent opening replies (`onion::unwrap_reply_layers`).
    pub open_s: f64,
    pub problems: Vec<String>,
}

/// Checks one round's backward frame: every paired reply decrypts to
/// its partner's sealed message, a dialing round's trailer accounts for
/// its real invitations, and the trailer is well formed.
pub fn check_round(batch: &ClientBatch, back: &BatchFrame) -> RoundCheck {
    let mut check = RoundCheck::default();
    let round = batch.round;
    let count = batch.count();
    let trailer = match RoundTrailer::decode(&back.trailer) {
        Ok(trailer) => trailer,
        Err(reason) => {
            check.failed = count;
            check.problems.push(format!("round {round}: {reason}"));
            return check;
        }
    };
    match trailer {
        RoundTrailer::Conversation(obs) if !batch.is_dialing() => {
            let replies = replies(back);
            if replies.len() != count {
                check.failed = count;
                check.problems.push(format!(
                    "round {round}: {} replies for {count} requests",
                    replies.len()
                ));
                return check;
            }
            let clock = Instant::now();
            for (i, reply) in replies.iter().enumerate() {
                let opened = onion::unwrap_reply_layers(&batch.keys[i], round, reply);
                let ok = match (opened, batch.partner(i)) {
                    (Ok(plain), Some(j)) => plain == batch.messages[j],
                    (Ok(_), None) => true,
                    (Err(_), _) => false,
                };
                if !ok {
                    check.failed += 1;
                }
            }
            check.open_s = clock.elapsed().as_secs_f64();
            if check.failed > 0 {
                check.problems.push(format!(
                    "round {round}: {} replies did not open to the partner's message",
                    check.failed
                ));
            }
            let pairs = (0..count).filter(|&i| batch.partner(i).is_some()).count() as u64 / 2;
            if obs.total_requests < count as u64 || obs.m2 < pairs {
                check.failed = count;
                check.problems.push(format!(
                    "round {round}: observables {obs:?} cannot hold {count} requests in {pairs} pairs"
                ));
            }
        }
        RoundTrailer::Dialing(obs) if batch.is_dialing() => {
            let drops = match batch.entry {
                vuvuzela::deploy::ScheduleEntry::Dialing { drops, .. } => drops as usize,
                vuvuzela::deploy::ScheduleEntry::Conversation { .. } => 0,
            };
            let mut real = vec![0u64; drops];
            for &drop in &batch.dial_drops {
                if let Some(slot) = (drop as usize).checked_sub(1).and_then(|d| real.get_mut(d)) {
                    *slot += 1;
                }
            }
            let accounted = obs.counts.len() == drops
                && obs
                    .counts
                    .iter()
                    .zip(&real)
                    .all(|(seen, sent)| seen >= sent);
            if !accounted || back.count != 0 {
                check.failed = count;
                check.problems.push(format!(
                    "round {round}: dialing trailer {:?} does not account for invitations {real:?}",
                    obs.counts
                ));
            }
        }
        _ => {
            check.failed = count;
            check.problems.push(format!(
                "round {round}: trailer does not match the round type"
            ));
        }
    }
    check
}

/// Runs `batches` on the in-process sequential `Chain` and compares each
/// reply and trailer with what the deployed chain returned. Returns the
/// indices of the rounds that differ.
pub fn check_reference(
    system: &SystemConfig,
    seed: u64,
    batches: &[ClientBatch],
    backs: &[&BatchFrame],
) -> Vec<usize> {
    let mut chain = Chain::new(system.clone(), seed);
    let mut mismatched = Vec::new();
    for (index, (batch, back)) in batches.iter().zip(backs).enumerate() {
        let round = batch.round;
        let onions: Vec<Vec<u8>> = batch
            .payload
            .chunks(batch.width)
            .map(<[u8]>::to_vec)
            .collect();
        let matches = match batch.entry {
            vuvuzela::deploy::ScheduleEntry::Conversation { .. } => {
                let (reference, _) = chain.run_conversation_round(round, onions);
                let (_, obs) = *chain
                    .conversation_observables()
                    .last()
                    .expect("round just ran");
                let same_replies = reference.len() == back.count as usize
                    && reference.iter().zip(replies(back)).all(|(a, b)| a == b);
                same_replies
                    && RoundTrailer::decode(&back.trailer) == Ok(RoundTrailer::Conversation(obs))
            }
            vuvuzela::deploy::ScheduleEntry::Dialing { drops, .. } => {
                chain.run_dialing_round(round, onions, drops);
                let (_, obs) = chain.dialing_observables().last().expect("round just ran");
                RoundTrailer::decode(&back.trailer) == Ok(RoundTrailer::Dialing(obs.clone()))
            }
        };
        if !matches {
            mismatched.push(index);
        }
    }
    mismatched
}
