//! The traced in-process replay: the same seed's rounds, run
//! sequentially through each layer's public functions with one span
//! around every call.
//!
//! Per hop, the real forward pass (`MixServer::forward_buf`) runs on
//! the hop's input, and the layers it is built from run on a copy of
//! that input with the server's own round RNG, under one `copies.h{i}`
//! span: `onion::peel_chunk_in_place`,
//! `noise::{conversation,dialing}_noise_into` and
//! `RoundBuffer::permute`. The tail's dead-drop exchange or invitation
//! deposit, every hop's backward pass, and each frame's encode/decode
//! on each link run once, as in the deployment.

use crate::inputs::ClientBatch;
use crate::trace::Tracer;
use crate::verify::check_round;
use crate::workload::CHAIN_LEN;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vuvuzela::core::chain::{build_server, server_keypairs, server_round_rng};
use vuvuzela::core::deaddrops::{ConversationDrops, InvitationDrops};
use vuvuzela::core::node::RoundTrailer;
use vuvuzela::core::noise;
use vuvuzela::core::roundbuf::RoundBuffer;
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::SystemConfig;
use vuvuzela::crypto::onion::{self, PrecomputedServer};
use vuvuzela::wire::conversation::ExchangeRequest;
use vuvuzela::wire::dialing::DialRequest;
use vuvuzela::wire::{BatchFrame, Frame, LinkId, RoundId, RoundType, EXCHANGE_RESPONSE_LEN};

/// Links in chain order: clients→entry, then `Hop(i)` into server i.
pub const LINKS: [&str; CHAIN_LEN + 1] = ["clients", "hop0", "hop1", "hop2"];

/// What the replay measured besides its spans.
#[derive(Default)]
pub struct Replay {
    pub tracer: Tracer,
    pub rounds: usize,
    pub conversation_rounds: usize,
    pub messages: usize,
    pub conversation_messages: usize,
    pub peel_attempted: usize,
    pub peel_ok: usize,
    pub noise_onions: usize,
    pub m2: u64,
    /// Framed bytes per link (both directions), in [`LINKS`] order.
    pub link_bytes: [u64; CHAIN_LEN + 1],
    /// Each round's trailer, for comparison with the deployed chain.
    pub trailers: Vec<Vec<u8>>,
    /// Replies the replayed client could not open correctly.
    pub problems: Vec<String>,
}

/// Slots per `peel_chunk_in_place` call, as `MixServer::forward_buf`
/// chunks its peel (a private constant there): each call batches its
/// chunk's field inversions, so the chunk size sets the peel's cost.
const PEEL_CHUNK_SLOTS: usize = 32;

/// Fisher–Yates over the round RNG, as the server shuffles.
fn permutation(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

fn batch_frame(
    link: LinkId,
    round: u64,
    kind: RoundKind,
    backward: bool,
    buf: RoundBuffer,
    trailer: Vec<u8>,
) -> Frame {
    let (round_type, num_drops) = match kind {
        RoundKind::Conversation => (RoundType::Conversation, 0),
        RoundKind::Dialing { num_drops } => (RoundType::Dialing, num_drops),
    };
    let (payload, stride, width, count) = buf.into_raw();
    Frame::Batch(BatchFrame {
        link,
        round: RoundId(round),
        round_type,
        num_drops,
        backward,
        stride: stride as u32,
        width: width as u32,
        count: count as u32,
        payload,
        trailer,
    })
}

fn unbatch(
    frame: Result<Frame, vuvuzela::wire::FrameError>,
    round: u64,
) -> Result<BatchFrame, String> {
    match frame {
        Ok(Frame::Batch(batch)) => Ok(batch),
        other => Err(format!(
            "round {round}: replayed frame decoded to {other:?}"
        )),
    }
}

fn buf_of(frame: BatchFrame) -> RoundBuffer {
    RoundBuffer::from_raw(
        frame.payload,
        frame.stride as usize,
        frame.width as usize,
        frame.count as usize,
    )
}

impl Replay {
    /// Encodes `frame` onto `link` and decodes it at the far end, each
    /// in its own span.
    fn cross(
        &mut self,
        link: usize,
        dir: &str,
        frame: Frame,
        parent: usize,
        round: u64,
    ) -> Result<BatchFrame, String> {
        let tracer = &mut self.tracer;
        let name = LINKS[link];
        let bytes = tracer.time(
            format!("wire.{name}.{dir}.encode"),
            Some(parent),
            round,
            || frame.encode(),
        );
        self.link_bytes[link] += 4 + bytes.len() as u64;
        let decoded = tracer.time(
            format!("wire.{name}.{dir}.decode"),
            Some(parent),
            round,
            || Frame::decode(&bytes),
        );
        unbatch(decoded, round)
    }
}

/// Replays `batches` on an in-process chain of `system`.
pub fn replay(system: &SystemConfig, seed: u64, batches: &[ClientBatch]) -> Result<Replay, String> {
    let keypairs = server_keypairs(CHAIN_LEN, seed);
    let mut servers: Vec<_> = (0..CHAIN_LEN)
        .map(|i| build_server(system, seed, i))
        .collect();
    let suffixes: Vec<Vec<PrecomputedServer>> = (0..CHAIN_LEN)
        .map(|i| {
            keypairs[i + 1..]
                .iter()
                .map(|kp| PrecomputedServer::new(kp.public))
                .collect()
        })
        .collect();
    let mut out = Replay {
        ..Replay::default()
    };

    for batch in batches {
        let r = batch.round;
        let kind = batch.kind();
        out.rounds += 1;
        out.messages += batch.count();
        if !batch.is_dialing() {
            out.conversation_rounds += 1;
            out.conversation_messages += batch.count();
        }
        let root = out.tracer.begin("round", None, r);

        // Client → entry, then the entry re-frames onto hop 0.
        let mut incoming = out.cross(0, "fwd", batch.frame(), root, r)?;
        incoming.link = LinkId::Hop(0);
        let mut frame = Frame::Batch(incoming);
        let mut tail_out = None;
        for hop in 0..CHAIN_LEN {
            let incoming = out.cross(
                hop + 1,
                "fwd",
                std::mem::replace(&mut frame, Frame::Bye),
                root,
                r,
            )?;
            let tracer = &mut out.tracer;
            let (stride, width, count) = (
                incoming.stride as usize,
                incoming.width as usize,
                incoming.count as usize,
            );

            // The layers, on a copy of this hop's input, under one
            // `copies` span: they duplicate work the forward pass does.
            let copies = tracer.begin(format!("copies.h{hop}"), Some(root), r);
            let mut copy = incoming.payload.clone();
            let kp = &keypairs[hop];
            let results: Vec<_> =
                tracer.time(format!("crypto.h{hop}.peel"), Some(copies), r, || {
                    copy.chunks_mut(PEEL_CHUNK_SLOTS * stride)
                        .flat_map(|chunk| {
                            onion::peel_chunk_in_place(
                                &kp.secret, &kp.public, r, chunk, stride, width,
                            )
                        })
                        .collect()
                });
            out.peel_attempted += results.len();
            out.peel_ok += results.iter().filter(|res| res.is_ok()).count();
            if hop + 1 < CHAIN_LEN {
                let mut buf = RoundBuffer::from_raw(copy, stride, width, count);
                buf.set_width(width - onion::LAYER_OVERHEAD);
                let mut rng = server_round_rng(seed, hop, r);
                let suffix = &suffixes[hop];
                tracer.time(
                    format!("noise.h{hop}.gen"),
                    Some(copies),
                    r,
                    || match kind {
                        RoundKind::Conversation => {
                            noise::conversation_noise_into(
                                &mut rng,
                                &mut buf,
                                suffix,
                                r,
                                system.conversation_noise,
                                system.noise_mode,
                                system.workers,
                            );
                        }
                        RoundKind::Dialing { num_drops } => {
                            noise::dialing_noise_into(
                                &mut rng,
                                &mut buf,
                                suffix,
                                r,
                                num_drops,
                                system.dialing_noise,
                                system.noise_mode,
                                system.workers,
                            );
                        }
                    },
                );
                out.noise_onions += buf.len() - count;
                let perm = permutation(&mut rng, buf.len());
                tracer.time(format!("roundbuf.h{hop}.permute"), Some(copies), r, || {
                    buf.permute(&perm);
                });
            }
            tracer.end(copies);

            // The real forward pass.
            let server = &mut servers[hop];
            let forwarded = tracer.time(format!("server.h{hop}.fwd"), Some(root), r, || {
                server.forward_buf(r, kind, buf_of(incoming))
            });
            if hop + 1 < CHAIN_LEN {
                if batch.is_dialing() {
                    server.abort_round(r);
                }
                frame = batch_frame(
                    LinkId::Hop(hop as u32 + 1),
                    r,
                    kind,
                    false,
                    forwarded,
                    Vec::new(),
                );
            } else {
                tail_out = Some(forwarded);
            }
        }
        let tail_out = tail_out.expect("the chain has a tail");

        // The tail: exchange or deposit. The bench's own RNG only feeds
        // filler for unmatched requests, never a count.
        let mut rng = StdRng::seed_from_u64(seed ^ r.rotate_left(32));
        let tracer = &mut out.tracer;
        let (replies, trailer) = match kind {
            RoundKind::Conversation => {
                let (replies, obs) = tracer.time("deaddrops.exchange", Some(root), r, || {
                    let requests: Vec<ExchangeRequest> = (0..tail_out.len())
                        .map(|i| {
                            ExchangeRequest::decode(tail_out.slot(i))
                                .unwrap_or_else(|_| ExchangeRequest::noise(&mut rng))
                        })
                        .collect();
                    let (responses, obs) = ConversationDrops::exchange_sharded(
                        &mut rng,
                        &requests,
                        system.exchange_shards,
                        system.workers,
                    );
                    let mut replies = RoundBuffer::with_capacity(
                        EXCHANGE_RESPONSE_LEN + CHAIN_LEN * onion::REPLY_LAYER_OVERHEAD,
                        EXCHANGE_RESPONSE_LEN,
                        responses.len(),
                    );
                    for response in &responses {
                        replies.push_with(|slot| slot.copy_from_slice(&response.sealed_message));
                    }
                    (replies, obs)
                });
                out.m2 += obs.m2;
                (Some(replies), RoundTrailer::Conversation(obs).encode())
            }
            RoundKind::Dialing { num_drops } => {
                let tail = &mut servers[CHAIN_LEN - 1];
                let obs = tracer.time("deaddrops.deposit", Some(root), r, || {
                    let mut drops = InvitationDrops::new(num_drops);
                    for i in 0..tail_out.len() {
                        drops.deposit(
                            DialRequest::decode(tail_out.slot(i))
                                .unwrap_or_else(|_| DialRequest::noop(&mut rng)),
                        );
                    }
                    let counts = tail.dialing_noise_counts(r, num_drops);
                    drops.add_noise(&mut rng, &counts);
                    drops.observables()
                });
                tail.abort_round(r);
                (None, RoundTrailer::Dialing(obs).encode())
            }
        };

        // Backward: each hop's pass (conversation only), then its link.
        let mut replies = replies;
        let mut back = None;
        for hop in (0..CHAIN_LEN).rev() {
            let tracer = &mut out.tracer;
            let buf = match replies.take() {
                Some(buf) => {
                    let server = &mut servers[hop];
                    tracer.time(format!("server.h{hop}.bwd"), Some(root), r, || {
                        server.backward_buf(r, buf)
                    })
                }
                None => RoundBuffer::new(1, 0),
            };
            let frame = batch_frame(LinkId::Hop(hop as u32), r, kind, true, buf, trailer.clone());
            let arrived = out.cross(hop + 1, "bwd", frame, root, r)?;
            if hop > 0 && !batch.is_dialing() {
                replies = Some(buf_of(arrived));
            } else {
                back = Some(arrived);
            }
        }
        let mut to_client = back.expect("hop 0 answered");
        to_client.link = LinkId::Clients;
        let back = out.cross(0, "bwd", Frame::Batch(to_client), root, r)?;
        let tracer = &mut out.tracer;
        let check = tracer.time("client.open", Some(root), r, || check_round(batch, &back));
        tracer.end(root);
        out.problems.extend(check.problems);
        out.trailers.push(back.trailer);
    }
    Ok(out)
}
