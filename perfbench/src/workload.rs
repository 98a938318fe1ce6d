//! The benchmark's workloads: one traffic mix each, all on a 3-server
//! chain with sampled noise at the paper's b ≈ µ/20 ratio.

use vuvuzela::core::SystemConfig;
use vuvuzela::deploy::{DeploymentConfig, ScheduleEntry, DEFAULT_CONNECT_TIMEOUT_MS};
use vuvuzela::dp::{NoiseDistribution, NoiseMode};

/// Servers in the chain, and the client's admission-window depth.
pub const CHAIN_LEN: usize = 3;

/// Client messages each client-timing slice covers, at least.
pub const CLIENT_TIMING_MSGS: usize = 2000;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The repeating round schedule.
    pub period: &'static [ScheduleEntry],
    /// Conversation noise mean per noising server and round.
    pub conversation_mu: f64,
    /// Dialing noise mean per noising server, round and drop.
    pub dialing_mu: f64,
    /// Rounds run before the timed phase.
    pub warmup_rounds: usize,
    /// Rounds generated per second of timed phase: two to three times the
    /// fastest throughput seen on a 2-core box, so the timed phase ends
    /// on the clock, not on exhausted inputs. A run that outruns them
    /// still ends its timed phase ahead of the trailing rounds and says
    /// so on a note line.
    pub gen_rounds_per_sec: f64,
    /// Rounds replayed in-process by the traced run.
    pub replay_rounds: usize,
    /// Leading rounds diffed against the in-process sequential `Chain`.
    pub reference_rounds: usize,
}

const CONV_STEADY: &[ScheduleEntry] = &[ScheduleEntry::Conversation {
    pairs: 250,
    singles: 0,
}];

const COVER_DIAL: &[ScheduleEntry] = &[
    ScheduleEntry::Conversation {
        pairs: 10,
        singles: 0,
    },
    ScheduleEntry::Conversation {
        pairs: 10,
        singles: 0,
    },
    ScheduleEntry::Dialing { dials: 8, drops: 4 },
];

const TINY_ROUNDS: &[ScheduleEntry] = &[ScheduleEntry::Conversation {
    pairs: 2,
    singles: 0,
}];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "conv_steady",
        period: CONV_STEADY,
        conversation_mu: 150.0,
        dialing_mu: 150.0,
        warmup_rounds: 6,
        gen_rounds_per_sec: 22.0,
        replay_rounds: 18,
        reference_rounds: 2,
    },
    Workload {
        name: "cover_dial",
        period: COVER_DIAL,
        conversation_mu: 300.0,
        dialing_mu: 300.0,
        warmup_rounds: 9,
        gen_rounds_per_sec: 20.0,
        replay_rounds: 18,
        reference_rounds: 3,
    },
    Workload {
        name: "tiny_rounds",
        period: TINY_ROUNDS,
        conversation_mu: 2.0,
        dialing_mu: 2.0,
        warmup_rounds: 300,
        gen_rounds_per_sec: 1500.0,
        replay_rounds: 600,
        reference_rounds: 4,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The system every node of this workload runs: one worker per
    /// node, so three pipelined servers and the entry share two cores
    /// without oversubscription.
    pub fn system(&self) -> SystemConfig {
        SystemConfig {
            chain_len: CHAIN_LEN,
            conversation_noise: NoiseDistribution::new(
                self.conversation_mu,
                self.conversation_mu / 20.0,
            ),
            dialing_noise: NoiseDistribution::new(self.dialing_mu, self.dialing_mu / 20.0),
            noise_mode: NoiseMode::Sampled,
            workers: 1,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 1,
        }
    }

    /// The deployment file the chain processes load: ephemeral loopback
    /// ports and one period of the schedule (nodes never read the
    /// schedule; it only feeds the config digest).
    pub fn deployment(&self, seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            system: self.system(),
            seed,
            entry_addr: "127.0.0.1:0".to_string(),
            server_addrs: vec!["127.0.0.1:0".to_string(); CHAIN_LEN],
            schedule: self.period.to_vec(),
            connect_timeout_ms: DEFAULT_CONNECT_TIMEOUT_MS,
        }
    }

    /// The same deployment with the period repeated over `rounds`
    /// rounds: the schedule `deploy::build_client_round` indexes.
    pub fn generation_config(&self, seed: u64, rounds: usize) -> DeploymentConfig {
        let mut cfg = self.deployment(seed);
        cfg.schedule = (0..rounds)
            .map(|r| self.period[r % self.period.len()])
            .collect();
        cfg
    }

    /// Rounds to generate for a run whose timed phase lasts `seconds`:
    /// warm-up, the timed budget, and a window of trailing rounds that
    /// keep the pipeline full while the timed rounds drain.
    pub fn rounds_for(&self, seconds: f64) -> usize {
        let wire =
            self.warmup_rounds + (self.gen_rounds_per_sec * seconds).ceil() as usize + CHAIN_LEN;
        let client = self.warmup_rounds + 2 * self.client_slice_rounds();
        wire.max(self.replay_rounds).max(client)
    }

    /// Rounds in one client-timing slice: whole periods holding at least
    /// [`CLIENT_TIMING_MSGS`] messages.
    pub fn client_slice_rounds(&self) -> usize {
        let per_period: usize = self
            .period
            .iter()
            .map(|entry| match *entry {
                ScheduleEntry::Conversation { pairs, singles } => (2 * pairs + singles) as usize,
                ScheduleEntry::Dialing { dials, .. } => dials as usize,
            })
            .sum();
        CLIENT_TIMING_MSGS.div_ceil(per_period.max(1)) * self.period.len()
    }
}
