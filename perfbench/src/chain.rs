//! The deployed chain: `vuvuzela-server` ×3 and `vuvuzela-entry` as
//! separate processes over loopback TCP, driven by one closed-loop
//! client thread on one connection to the entry.

use crate::inputs::ClientBatch;
use crate::procfs;
use crate::workload::CHAIN_LEN;
use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vuvuzela::core::engine::{admission_weights, AdmissionWindow};
use vuvuzela::core::server::RoundKind;
use vuvuzela::deploy::DeploymentConfig;
use vuvuzela::net::{LinkId, TcpTransport, Transport};
use vuvuzela::wire::{BatchFrame, Frame};

/// Bytes a frame occupies on a framed-TCP link (length prefix included).
pub fn link_bytes(frame: &Frame) -> u64 {
    4 + frame.encoded_len() as u64
}

/// Pids of every live chain process, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Kills every chain process and exits non-zero once `limit` has
/// passed: a peer that never answers a handshake or a frame would
/// otherwise block the client forever. The thread is left detached on
/// purpose; the process ends with it or before it.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; killing the chain");
        for pid in live().iter() {
            let _ = Command::new("kill")
                .arg("-KILL")
                .arg(pid.to_string())
                .status();
        }
        std::process::exit(3);
    });
}

/// The chain's child processes, killed if dropped before an orderly
/// shutdown.
struct Procs(Vec<(String, Child)>);

impl Procs {
    fn spawn(&mut self, name: String, command: &mut Command) -> Result<(), String> {
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|err| format!("cannot spawn {name}: {err}"))?;
        live().push(child.id());
        self.0.push((name, child));
        Ok(())
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
            live().retain(|&pid| pid != child.id());
        }
    }
}

/// Gives every `:0` address of the deployment its own free loopback
/// port, holding all probe listeners open until every port is chosen so
/// no two nodes are handed the same one.
fn assign_ports(cfg: &mut DeploymentConfig) -> Result<(), String> {
    let mut probes = Vec::new();
    for addr in std::iter::once(&mut cfg.entry_addr).chain(cfg.server_addrs.iter_mut()) {
        if addr.ends_with(":0") {
            let probe = TcpListener::bind(addr.as_str())
                .map_err(|err| format!("cannot probe a free port on {addr}: {err}"))?;
            *addr = probe
                .local_addr()
                .map_err(|err| format!("no local address for {addr}: {err}"))?
                .to_string();
            probes.push(probe);
        }
    }
    Ok(())
}

/// A running chain: its processes and the client's entry connection.
pub struct Chain {
    /// Entry first, then servers 0..CHAIN_LEN.
    procs: Procs,
    pub entry: TcpTransport,
    /// Spawn of the first process → client handshake complete.
    pub setup_s: f64,
}

impl Chain {
    /// Spawns the chain on fresh loopback ports and connects to it.
    pub fn launch(
        template: &DeploymentConfig,
        bin_dir: &Path,
        work_dir: &Path,
        tag: usize,
    ) -> Result<Chain, String> {
        let mut cfg = template.clone();
        assign_ports(&mut cfg)?;
        let config_path = work_dir.join(format!("deploy-{tag}.json"));
        let rendered = vuvuzela::serde_json::to_string_pretty(&cfg.to_json())
            .map_err(|err| format!("cannot render the deployment: {err:?}"))?;
        std::fs::write(&config_path, rendered)
            .map_err(|err| format!("cannot write {}: {err}", config_path.display()))?;

        let started = Instant::now();
        let mut procs = Procs(Vec::new());
        // Tail first, so downstream listeners tend to exist early (the
        // connect retry tolerates any order).
        for position in (0..CHAIN_LEN).rev() {
            procs.spawn(
                format!("vuvuzela-server {position}"),
                Command::new(bin_dir.join("vuvuzela-server"))
                    .arg("--config")
                    .arg(&config_path)
                    .arg("--position")
                    .arg(position.to_string()),
            )?;
        }
        procs.spawn(
            "vuvuzela-entry".to_string(),
            Command::new(bin_dir.join("vuvuzela-entry"))
                .arg("--config")
                .arg(&config_path),
        )?;
        procs.0.reverse();
        let entry = TcpTransport::connect(
            cfg.entry_addr.as_str(),
            LinkId::Clients,
            cfg.digest(),
            &cfg.connect_retry(),
        )
        .map_err(|err| format!("cannot connect to the entry: {err}"))?;
        Ok(Chain {
            procs,
            entry,
            setup_s: started.elapsed().as_secs_f64(),
        })
    }

    /// Process ids: entry, then servers 0..CHAIN_LEN.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.0.iter().map(|(_, child)| child.id()).collect()
    }

    /// CPU nanoseconds of every chain process, in [`Chain::pids`] order.
    pub fn cpu_ns(&self) -> Result<Vec<u64>, String> {
        self.pids().into_iter().map(procfs::cpu_ns).collect()
    }

    /// Context switches of every chain process, in [`Chain::pids`] order.
    pub fn ctx_switches(&self) -> Result<Vec<u64>, String> {
        self.pids().into_iter().map(procfs::ctx_switches).collect()
    }

    fn boundary(&self) -> Result<Boundary, String> {
        Ok(Boundary {
            cpu_ns: self.cpu_ns()?,
            ctx: self.ctx_switches()?,
        })
    }

    /// Largest peak RSS among the chain processes, in kB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let peaks: Result<Vec<u64>, String> =
            self.pids().into_iter().map(procfs::peak_rss_kb).collect();
        Ok(peaks?.into_iter().max().unwrap_or(0))
    }

    /// Orderly `Bye` shutdown; fails if any process exits non-zero or
    /// does not exit within `timeout` (stragglers are killed).
    pub fn shutdown(mut self, timeout: Duration) -> Result<(), String> {
        self.entry
            .send(Frame::Bye)
            .map_err(|err| format!("cannot send bye: {err}"))?;
        let deadline = Instant::now() + timeout;
        for (name, child) in &mut self.procs.0 {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("{name} exited with {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(None) => return Err(format!("{name} did not exit after bye")),
                    Err(err) => return Err(format!("cannot wait for {name}: {err}")),
                }
            }
        }
        Ok(())
    }
}

/// One phase of a drive: admit rounds until `seconds` have passed since
/// the phase's first admission or `rounds` rounds were admitted,
/// whichever comes first.
pub struct Phase {
    pub seconds: f64,
    pub rounds: usize,
    /// Sample every chain process's CPU at each completion.
    pub traced: bool,
}

/// What the client loop recorded for one round.
pub struct RoundLog {
    /// Index into the phases; `phases.len()` for the trailing rounds.
    pub phase: usize,
    /// Nanoseconds since the drive's origin.
    pub sent_ns: u64,
    pub done_ns: u64,
    /// Time the client blocked on a full window before sending.
    pub wait_ns: u64,
    /// Window slots occupied right after admission.
    pub occupied: usize,
    /// Nanoseconds the send call took.
    pub send_ns: u64,
    pub bytes: u64,
    pub reply: BatchFrame,
    /// Chain CPU nanoseconds at completion, sampled in traced phases.
    pub cpu_ns: Option<Vec<u64>>,
    /// Chain CPU nanoseconds and context switches at completion,
    /// sampled where a phase ends.
    pub boundary: Option<Boundary>,
}

/// Per-process counters at a phase boundary, in [`Chain::pids`] order.
pub struct Boundary {
    pub cpu_ns: Vec<u64>,
    pub ctx: Vec<u64>,
}

/// Prices every round exactly as `deploy::run_client` does.
pub fn weights(cfg: &DeploymentConfig, batches: &[ClientBatch]) -> Vec<usize> {
    let shapes: Vec<(RoundKind, usize)> = batches.iter().map(|b| (b.kind(), b.count())).collect();
    admission_weights(&cfg.system, CHAIN_LEN, &shapes)
}

/// The client loop's state between admissions.
struct ClientLoop<'a> {
    chain: &'a Chain,
    phases: &'a [Phase],
    origin: Instant,
    window: AdmissionWindow,
    logs: Vec<RoundLog>,
    in_flight: VecDeque<usize>,
    /// A phase's last round, whose completion must sample the chain's
    /// CPU (the boundary of a measured interval).
    sample_at: Option<usize>,
}

impl ClientLoop<'_> {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Receives the oldest in-flight round's backward frame.
    fn collect(&mut self) -> Result<(), String> {
        let index = self.in_flight.pop_front().expect("a round in flight");
        let frame = self
            .chain
            .entry
            .recv()
            .map_err(|err| format!("round {index}: {err}"))?;
        let done = Instant::now();
        let bytes = link_bytes(&frame);
        let back = match frame {
            Frame::Batch(back) if back.backward && back.round.0 == index as u64 => back,
            Frame::Batch(other) => {
                return Err(format!(
                    "round {index}: expected its backward frame, got round {} (backward: {})",
                    other.round.0, other.backward
                ))
            }
            other => {
                return Err(format!(
                    "round {index}: expected its backward frame, got {other:?}"
                ))
            }
        };
        self.window
            .complete(index as u64)
            .ok_or_else(|| format!("round {index} completed twice"))?;
        let traced = self
            .phases
            .get(self.logs[index].phase)
            .is_some_and(|phase| phase.traced);
        let cpu_ns = if traced {
            Some(self.chain.cpu_ns()?)
        } else {
            None
        };
        let boundary = if self.sample_at == Some(index) {
            Some(self.chain.boundary()?)
        } else {
            None
        };
        let done_ns = self.ns(done);
        let log = &mut self.logs[index];
        log.done_ns = done_ns;
        log.bytes += bytes;
        log.reply = back;
        log.cpu_ns = cpu_ns;
        log.boundary = boundary;
        Ok(())
    }

    /// Marks round `last` as a phase boundary: sample now if it already
    /// completed, else at its completion.
    fn boundary(&mut self, last: usize) -> Result<(), String> {
        if self.in_flight.contains(&last) {
            self.sample_at = Some(last);
        } else {
            self.logs[last].boundary = Some(self.chain.boundary()?);
        }
        Ok(())
    }
}

/// Closed-loop drive: rounds are admitted in order under the weighted
/// window; `phases` run back to back, then up to `CHAIN_LEN` trailing
/// rounds keep the pipeline full while the last phase drains (callers
/// leave that many inputs outside the phases' round budgets). The
/// completion of each phase's last round samples the chain's CPU.
pub fn drive(
    chain: &Chain,
    batches: &[ClientBatch],
    weights: &[usize],
    phases: &[Phase],
) -> Result<Vec<RoundLog>, String> {
    let mut client = ClientLoop {
        chain,
        phases,
        origin: Instant::now(),
        window: AdmissionWindow::new(CHAIN_LEN),
        logs: Vec::with_capacity(batches.len()),
        in_flight: VecDeque::new(),
        sample_at: None,
    };
    let mut phase = 0;
    let mut phase_start: Option<Instant> = None;
    let mut phase_rounds = 0;
    let mut trailing = 0;

    for (index, batch) in batches.iter().enumerate() {
        // Phase bookkeeping happens at admission: the first round
        // admitted past a phase's budget opens the next phase.
        if let (Some(current), Some(start)) = (phases.get(phase), phase_start) {
            let spent =
                phase_rounds >= current.rounds || start.elapsed().as_secs_f64() >= current.seconds;
            if spent {
                client.boundary(index - 1)?;
                phase += 1;
                phase_start = None;
                phase_rounds = 0;
            }
        }
        if phase == phases.len() {
            if trailing == CHAIN_LEN {
                break;
            }
            trailing += 1;
        }
        let weight = weights[index];
        let waited = Instant::now();
        while client.window.would_block(weight) {
            client.collect()?;
        }
        let wait_ns = waited.elapsed().as_nanos() as u64;
        let frame = batch.frame();
        let bytes = link_bytes(&frame);
        let sent = Instant::now();
        phase_start.get_or_insert(sent);
        phase_rounds += 1;
        chain
            .entry
            .send(frame)
            .map_err(|err| format!("round {}: {err}", batch.round))?;
        let send_ns = sent.elapsed().as_nanos() as u64;
        client.window.admit(index as u64, weight);
        let sent_ns = client.ns(sent);
        let occupied = client.window.occupied();
        client.logs.push(RoundLog {
            phase,
            sent_ns,
            done_ns: 0,
            wait_ns,
            occupied,
            send_ns,
            bytes,
            reply: empty_reply(),
            cpu_ns: None,
            boundary: None,
        });
        client.in_flight.push_back(index);
    }
    if phase < phases.len() {
        // Inputs ran out before the last phase's budget: it ends here.
        let last = client.logs.len() - 1;
        client.boundary(last)?;
    }
    while !client.in_flight.is_empty() {
        client.collect()?;
    }
    Ok(client.logs)
}

fn empty_reply() -> BatchFrame {
    BatchFrame {
        link: LinkId::Clients,
        round: vuvuzela::wire::RoundId(0),
        round_type: vuvuzela::wire::RoundType::Conversation,
        num_drops: 0,
        backward: true,
        stride: 0,
        width: 0,
        count: 0,
        payload: Vec::new(),
        trailer: Vec::new(),
    }
}
