//! Mixed-schedule throughput artefact: the sequential `Chain` vs the
//! unified `StreamingChain` mixed-round scheduler on an interleaved
//! conversation + dialing workload.
//!
//! A deployment never runs conversation rounds in isolation: dialing
//! rounds (§5, µ = 13,000 noise per drop at the paper's parameters)
//! interleave with the conversation protocol on the same mix chain, and
//! the paper's throughput claims are about that combined load. This
//! artefact therefore drives both schedulers over the *same*
//! heterogeneous [`RoundSpec`] sequence — conversation rounds with a
//! dialing round every third slot — and reports:
//!
//! * **measured** — wall-clock rounds/sec per scheduler on this machine
//!   (the honest ground truth; on a box with fewer cores than stages
//!   the overlapped schedule cannot beat the sequential one);
//! * **sustained model** — the steady-state pipeline throughput implied
//!   by the measured per-hop stage times: a full pipeline completes one
//!   round per `max(stage busy)` instead of `sum(stage busy)`, summed
//!   over the heterogeneous schedule round by round;
//! * the **admission weights** the scheduler priced each round at
//!   (µ=13k dialing rounds occupy several window slots).
//!
//! Outputs are first held byte-identical between the two schedulers
//! (replies, observables, invitation drops) before anything is timed.
//!
//! Regenerate with
//! `cargo run --release -p vuvuzela-bench --bin bench_mixed_schedule`
//! (writes `BENCH_mixed_schedule.json` at the workspace root). Set
//! `VUVUZELA_BENCH_SMOKE=1` for the CI variant: tiny schedule,
//! `workers = 2`, writes `bench_results/SMOKE_mixed_schedule.json` for
//! the `bench_diff` regression gate and exits non-zero if streaming
//! throughput regresses below sequential on a multi-core machine.

use std::time::Instant;

use vuvuzela_bench::report::{stage_busy_secs, workspace_root, write_json};
use vuvuzela_bench::workload::{conversation_batch, dialing_batch};
use vuvuzela_core::pipeline::{admission_weights, StreamingChain};
use vuvuzela_core::{Chain, RoundOutcome, RoundSpec, SystemConfig};
use vuvuzela_dp::{NoiseDistribution, NoiseMode};
use vuvuzela_wire::RoundType;

const CHAIN_LEN: usize = 3;
const WINDOW: usize = 3;

struct Sizes {
    conv_onions: u64,
    conv_mu: f64,
    dial_users: u64,
    dial_mu: f64,
    num_drops: u32,
    /// `true` = dialing round at this schedule position.
    pattern: Vec<bool>,
    workers: usize,
    iterations: usize,
    smoke: bool,
}

fn sizes() -> Sizes {
    if std::env::var("VUVUZELA_BENCH_SMOKE").is_ok() {
        Sizes {
            conv_onions: 80,
            conv_mu: 40.0,
            dial_users: 40,
            dial_mu: 200.0,
            num_drops: 1,
            // Dialing adjacent *and* separated, ≥3 rounds in flight.
            pattern: vec![false, true, true, false, false, true],
            workers: 2,
            iterations: 3,
            smoke: true,
        }
    } else {
        Sizes {
            conv_onions: 2_000,
            conv_mu: 1_000.0,
            dial_users: 400,
            dial_mu: 13_000.0, // the paper's µ per drop (§8.1)
            num_drops: 1,
            // A dialing round every third slot.
            pattern: vec![false, false, true, false, false, true, false, false],
            workers: 2,
            iterations: 2,
            smoke: false,
        }
    }
}

fn config(sizes: &Sizes) -> SystemConfig {
    SystemConfig {
        chain_len: CHAIN_LEN,
        conversation_noise: NoiseDistribution::new(sizes.conv_mu, sizes.conv_mu / 20.0 + 1.0),
        dialing_noise: NoiseDistribution::new(sizes.dial_mu, sizes.dial_mu / 20.0 + 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: sizes.workers,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// Asserts both schedulers produced identical observables and replies.
fn assert_equivalent(
    streaming: &mut StreamingChain,
    sequential: &mut Chain,
    streamed: &[RoundOutcome],
    expected: &[RoundOutcome],
    num_drops: u32,
) {
    for (round, (got, want)) in streamed.iter().zip(expected).enumerate() {
        assert_eq!(got.replies(), want.replies(), "round {round} diverged");
    }
    let mut got = streaming.chain().conversation_observables().to_vec();
    got.sort_by_key(|(r, _)| *r);
    assert_eq!(
        got.as_slice(),
        sequential.conversation_observables(),
        "conversation observables diverged"
    );
    let mut got = streaming.chain().dialing_observables().to_vec();
    got.sort_by_key(|(r, _)| *r);
    assert_eq!(
        got.as_slice(),
        sequential.dialing_observables(),
        "dialing observables diverged"
    );
    for drop in 1..=num_drops {
        let index = vuvuzela_wire::deaddrop::InvitationDropIndex(drop);
        assert_eq!(
            streaming.download_drop(index),
            sequential.download_drop(index),
            "invitation drop {drop} diverged"
        );
    }
}

fn main() {
    let sizes = sizes();
    let seed = 42;
    let cores = vuvuzela_net::parallel::default_workers();
    println!(
        "mixed-schedule bench: {} rounds, conv {} onions/µ {}, dial {} users/µ {} per drop, chain {CHAIN_LEN}, {} core(s)",
        sizes.pattern.len(), sizes.conv_onions, sizes.conv_mu, sizes.dial_users, sizes.dial_mu, cores
    );

    // One shared workload (batches are scheduler-independent).
    let cfg = config(&sizes);
    let pks = Chain::new(cfg.clone(), seed).server_public_keys();
    let specs: Vec<RoundSpec> = sizes
        .pattern
        .iter()
        .enumerate()
        .map(|(i, &dialing)| {
            let round = i as u64;
            if dialing {
                RoundSpec::Dialing {
                    round,
                    batch: dialing_batch(
                        sizes.dial_users,
                        sizes.dial_users / 20,
                        sizes.num_drops,
                        round,
                        &pks,
                        cores,
                        99 + round,
                    )
                    .into(),
                    num_drops: sizes.num_drops,
                }
            } else {
                RoundSpec::Conversation {
                    round,
                    batch: conversation_batch(sizes.conv_onions, round, &pks, cores, 7 + round)
                        .into(),
                }
            }
        })
        .collect();
    // Render the schedule from each round's wire-level protocol tag.
    let schedule_str: String = specs
        .iter()
        .map(|spec| match spec.round_type() {
            RoundType::Conversation => 'C',
            RoundType::Dialing => 'D',
        })
        .collect();
    let weights = admission_weights(&cfg, WINDOW, &specs);
    println!("schedule {schedule_str}, admission weights (window {WINDOW}): {weights:?}");

    // Best-of-N wall clock per scheduler; outputs must agree on every
    // iteration.
    let rounds = specs.len();
    let mut seq_best: Option<(f64, Vec<RoundOutcome>)> = None;
    let mut stream_best: Option<f64> = None;
    for _ in 0..sizes.iterations {
        let mut sequential = Chain::new(cfg.clone(), seed);
        let start = Instant::now();
        let expected: Vec<RoundOutcome> = specs
            .iter()
            .cloned()
            .map(|spec| sequential.run_round(spec))
            .collect();
        let seq_wall = start.elapsed().as_secs_f64();

        let mut streaming = StreamingChain::new(cfg.clone(), seed).with_max_in_flight(WINDOW);
        let start = Instant::now();
        let streamed = streaming.run_mixed_schedule(specs.clone());
        let stream_wall = start.elapsed().as_secs_f64();

        assert_equivalent(
            &mut streaming,
            &mut sequential,
            &streamed,
            &expected,
            sizes.num_drops,
        );

        if seq_best.as_ref().is_none_or(|(best, _)| seq_wall < *best) {
            seq_best = Some((seq_wall, expected));
        }
        if stream_best.is_none_or(|best| stream_wall < best) {
            stream_best = Some(stream_wall);
        }
    }
    let (seq_wall, expected) = seq_best.expect("at least one iteration");
    let stream_wall = stream_best.expect("at least one iteration");

    // Steady-state pipeline model over the heterogeneous schedule: the
    // sequential cost of a round is the sum of its stage busy times, the
    // pipelined cost is its slowest stage.
    let seq_model: f64 = expected
        .iter()
        .map(|o| stage_busy_secs(o.timing()).iter().sum::<f64>())
        .sum();
    let pipeline_model: f64 = expected
        .iter()
        .map(|o| {
            stage_busy_secs(o.timing())
                .into_iter()
                .fold(0.0f64, f64::max)
        })
        .sum();
    let sustained_model = seq_model / pipeline_model;

    let seq_rate = rounds as f64 / seq_wall;
    let stream_rate = rounds as f64 / stream_wall;
    let measured = stream_rate / seq_rate;
    println!(
        "mixed: sequential {seq_rate:.3} rounds/s, streaming {stream_rate:.3} rounds/s \
         (measured {measured:.2}x, sustained model {sustained_model:.2}x)"
    );

    let json = serde_json::json!({
        "schedule": schedule_str,
        "rounds": rounds,
        "chain_len": CHAIN_LEN,
        "window": WINDOW,
        "admission_weights": weights,
        "conv_onions": sizes.conv_onions,
        "conv_mu": sizes.conv_mu,
        "dial_users": sizes.dial_users,
        "dial_mu_per_drop": sizes.dial_mu,
        "num_drops": sizes.num_drops,
        "workers": sizes.workers,
        "machine_cores": cores,
        // The stage balance behind the model depends on the peel kernel
        // (IFMA shrinks peel, not noise generation): compare only runs
        // whose kernels match.
        "peel_kernel": vuvuzela_crypto::x25519::batch_kernel(),
        "sequential": {
            "wall_secs": seq_wall,
            "rounds_per_sec": seq_rate,
        },
        "streaming": {
            "wall_secs": stream_wall,
            "rounds_per_sec": stream_rate,
        },
        "measured_speedup": measured,
        "sustained_speedup_model": sustained_model,
        "note": "sustained_speedup_model sums, round by heterogeneous round, max(stage busy) \
                 for the pipeline vs sum(stage busy) sequentially; measured_speedup is raw \
                 wall clock on this machine and cannot exceed 1.0 when cores < chain_len.",
    });
    if sizes.smoke {
        // Scratch output for the bench_diff gate; the committed
        // baseline is BENCH_smoke_mixed_schedule.json.
        let _ = write_json("SMOKE_mixed_schedule", &json);
    } else {
        // Committed at the workspace root (unlike the bench_results/
        // artefacts) so the perf trajectory is tracked in-repo.
        let path = workspace_root().join("BENCH_mixed_schedule.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&json).expect("serialize"),
        )
        .expect("write BENCH_mixed_schedule.json");
        println!("[artefact] {}", path.display());
    }

    if sizes.smoke {
        // CI gate: outputs byte-identical (asserted every iteration) and
        // no real throughput regression where the machine can overlap
        // stages; near 1.0× is legitimate when cores < chain_len.
        let threshold = if cores >= 2 { 0.9 } else { 0.5 };
        if measured < threshold {
            eprintln!(
                "SMOKE FAIL: mixed streaming measured {measured:.2}x < {threshold:.2}x \
                 (cores {cores})"
            );
            std::process::exit(1);
        }
        println!("smoke gate passed");
    }
}
