//! End-to-end and per-layer benchmark of the deployed Vuvuzela chain.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --bin-dir <dir> --out-dir <dir>` generates the workload's client
//! rounds from the seed, spawns `vuvuzela-server` ×3 and
//! `vuvuzela-entry` from `--bin-dir`, drives them closed-loop over
//! loopback TCP for `--seconds`, checks every reply, and prints one
//! JSON result as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (a traced wire run plus an
//! in-process replay) with `--trace 1`. Any failed check makes the run
//! exit non-zero.

mod chain;
mod inputs;
mod procfs;
mod replay;
mod trace;
mod verify;
mod workload;

use chain::{Chain, Phase, RoundLog};
use inputs::ClientBatch;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vuvuzela::deploy::DeploymentConfig;
use vuvuzela::net::{LinkId, TcpTransport, Transport};
use vuvuzela::serde_json::{json, Value};
use vuvuzela::wire::Frame;
use workload::{Workload, CHAIN_LEN};

/// Chain launches per untraced run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 21;
/// Round trips timed by the loopback probe.
const RTT_PINGS: usize = 200;
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    /// Negative control: flip one reply byte before the checks run.
    flip_reply: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut flip_reply = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flip-reply" => flip_reply = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--bin-dir" | "--out-dir" => {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                named.insert(arg, value);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let get = |key: &str| named.get(key).ok_or(format!("missing {key}"));
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::named(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|err| format!("--seed: {err}"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        bin_dir: PathBuf::from(get("--bin-dir")?),
        out_dir: PathBuf::from(get("--out-dir")?),
        flip_reply,
    })
}

/// One-line JSON (the vendored `serde_json` only pretty-prints).
fn compact(value: &Value) -> String {
    match value {
        Value::Object(map) => {
            let fields: Vec<String> = map
                .iter()
                .map(|(key, value)| {
                    format!("{}:{}", compact(&Value::from(key.as_str())), compact(value))
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        Value::Array(items) => {
            let items: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", items.join(","))
        }
        scalar => vuvuzela::serde_json::to_string_pretty(scalar).unwrap_or_default(),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The generated inputs and the client-side timing.
struct Prepared {
    gen_cfg: DeploymentConfig,
    batches: Vec<ClientBatch>,
    gen_s: f64,
    digest: String,
    /// Two runs of rounds whose request build is timed, one before the
    /// chain starts and one after it stops, so the client cost samples
    /// the machine at both ends of the run.
    client_slices: [std::ops::Range<usize>; 2],
    client_build_s: f64,
    client_msgs: usize,
}

impl Prepared {
    /// Rounds left for timed phases: all but warm-up and the trailing
    /// window, so timed rounds always drain behind trailing ones.
    fn timed_rounds(&self, w: &Workload) -> usize {
        self.batches.len() - w.warmup_rounds - CHAIN_LEN
    }

    /// Client time to build a request, per message.
    fn build_us_per_msg(&self) -> f64 {
        self.client_build_s * 1e6 / self.client_msgs as f64
    }

    /// Times `deploy::build_client_round` over one client slice and
    /// checks it rebuilds the pre-generated inputs byte for byte.
    fn time_client(&mut self, slice: usize) -> Result<(), String> {
        let range = self.client_slices[slice].clone();
        let pks = self.gen_cfg.server_public_keys();
        self.client_build_s +=
            inputs::check_against_deploy(&self.gen_cfg, &pks, &self.batches, range.clone())?;
        self.client_msgs += self.batches[range]
            .iter()
            .map(ClientBatch::count)
            .sum::<usize>();
        Ok(())
    }
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let w = &args.workload;
    let rounds = w.rounds_for(args.seconds);
    let gen_cfg = w.generation_config(args.seed, rounds);
    let pks = gen_cfg.server_public_keys();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clock = Instant::now();
    let batches = inputs::generate(&gen_cfg, &pks, threads);
    let gen_s = clock.elapsed().as_secs_f64();
    let digest = inputs::digest(&batches);
    let slice = w.client_slice_rounds();
    let first = w.warmup_rounds..w.warmup_rounds + slice;
    let second = first.end..first.end + slice;
    let mut prep = Prepared {
        gen_cfg,
        batches,
        gen_s,
        digest,
        client_slices: [first, second],
        client_build_s: 0.0,
        client_msgs: 0,
    };
    prep.time_client(0)?;
    Ok(prep)
}

fn warmup(w: &Workload) -> Phase {
    Phase {
        seconds: f64::INFINITY,
        rounds: w.warmup_rounds,
        traced: false,
    }
}

/// A note when a timed phase ended on its round budget rather than on
/// the clock: the chain outran the generated inputs.
fn exhausted(label: &str, stats: &PhaseStats, budget: &Phase) -> Option<String> {
    (stats.rounds >= budget.rounds).then(|| {
        format!(
            "inputs ran out: the {label} phase stopped after {} rounds and {:.3} s of its {} s; \
             raise gen_rounds_per_sec",
            stats.rounds, stats.wall_s, budget.seconds
        )
    })
}

/// The verdict over every round the chain returned.
struct Checked {
    attempted: usize,
    failed: usize,
    /// Failed client messages per round.
    failed_per_round: Vec<usize>,
    /// Seconds spent opening every reply of every checked round.
    open_s: f64,
    problems: Vec<String>,
}

fn check_all(args: &Args, prep: &Prepared, logs: &mut [RoundLog]) -> Checked {
    if args.flip_reply {
        // Negative control: one byte of one timed reply.
        if let Some(log) = logs
            .iter_mut()
            .find(|log| log.phase == 1 && !log.reply.payload.is_empty())
        {
            log.reply.payload[0] ^= 1;
        }
    }
    let mut checked = Checked {
        attempted: 0,
        failed: 0,
        failed_per_round: Vec::with_capacity(logs.len()),
        open_s: 0.0,
        problems: Vec::new(),
    };
    for (batch, log) in prep.batches.iter().zip(logs.iter()) {
        let check = verify::check_round(batch, &log.reply);
        checked.attempted += batch.count();
        checked.failed += check.failed;
        checked.failed_per_round.push(check.failed);
        checked.open_s += check.open_s;
        checked.problems.extend(check.problems);
    }
    let reference = args.workload.reference_rounds.min(logs.len());
    let backs: Vec<_> = logs[..reference].iter().map(|log| &log.reply).collect();
    for round in verify::check_reference(
        &prep.gen_cfg.system,
        args.seed,
        &prep.batches[..reference],
        &backs,
    ) {
        checked.fail_round(
            prep,
            round,
            "deployed chain differs from the in-process sequential Chain",
        );
    }
    checked
}

impl Checked {
    /// Client time to open a reply, per message sent.
    fn open_us_per_msg(&self) -> f64 {
        self.open_s * 1e6 / self.attempted as f64
    }

    /// Counts every client message of `round` as failed.
    fn fail_round(&mut self, prep: &Prepared, round: usize, why: &str) {
        let count = prep.batches[round].count();
        self.failed += count - self.failed_per_round[round];
        self.failed_per_round[round] = count;
        self.problems.push(format!("round {round}: {why}"));
    }
}

/// Throughput, latency and chain CPU over the rounds of one phase.
struct PhaseStats {
    rounds: usize,
    msgs: usize,
    verified: usize,
    wall_s: f64,
    latencies_s: Vec<f64>,
    /// Per-process CPU seconds over the phase.
    cpu_s: Vec<f64>,
    ctx: Vec<u64>,
    bytes: u64,
    wait_ns: u64,
    occupied: usize,
}

fn phase_stats(
    logs: &[RoundLog],
    batches: &[ClientBatch],
    failed_per_round: &[usize],
    phase: usize,
) -> Result<PhaseStats, String> {
    let first = logs
        .iter()
        .position(|log| log.phase == phase)
        .ok_or(format!("phase {phase} ran no rounds (inputs exhausted?)"))?;
    let last = logs
        .iter()
        .rposition(|log| log.phase == phase)
        .expect("phase has a first round");
    if first == 0 {
        return Err("a measured phase needs a preceding phase".to_string());
    }
    let before = &logs[first - 1];
    let end = &logs[last];
    let (b0, b1) = match (&before.boundary, &end.boundary) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(format!("phase {phase} boundary was not sampled")),
    };
    let span = &logs[first..=last];
    let msgs: usize = batches[first..=last].iter().map(ClientBatch::count).sum();
    let failed: usize = failed_per_round[first..=last].iter().sum();
    Ok(PhaseStats {
        rounds: span.len(),
        msgs,
        verified: msgs - failed.min(msgs),
        wall_s: (end.done_ns - before.done_ns) as f64 / 1e9,
        latencies_s: span
            .iter()
            .map(|log| (log.done_ns - log.sent_ns) as f64 / 1e9)
            .collect(),
        cpu_s: b0
            .cpu_ns
            .iter()
            .zip(&b1.cpu_ns)
            .map(|(a, b)| b.saturating_sub(*a) as f64 / 1e9)
            .collect(),
        ctx: b0
            .ctx
            .iter()
            .zip(&b1.ctx)
            .map(|(a, b)| b.saturating_sub(*a))
            .collect(),
        bytes: span.iter().map(|log| log.bytes).sum(),
        wait_ns: span.iter().map(|log| log.wait_ns).sum(),
        occupied: span.iter().map(|log| log.occupied).sum(),
    })
}

impl PhaseStats {
    fn msgs_per_s(&self) -> f64 {
        self.verified as f64 / self.wall_s
    }
}

/// A metric value with its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    metrics.insert(name.into(), (value, unit));
}

/// Times `RTT_PINGS` echo round trips of `frame` over a bench-owned
/// loopback `TcpTransport` pair; returns the median in microseconds.
fn loopback_rtt_us(frame: &Frame) -> Result<f64, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|err| format!("cannot bind the rtt probe: {err}"))?;
    let addr = listener
        .local_addr()
        .map_err(|err| format!("rtt probe address: {err}"))?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            let (stream, _) = listener
                .accept()
                .map_err(|err| format!("rtt probe accept: {err}"))?;
            let far =
                TcpTransport::from_stream(stream, LinkId::Clients).map_err(|e| e.to_string())?;
            loop {
                match far.recv().map_err(|e| e.to_string())? {
                    Frame::Bye => return Ok(()),
                    frame => far.send(frame).map_err(|e| e.to_string())?,
                }
            }
        });
        let result = (|| -> Result<f64, String> {
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|err| format!("rtt probe connect: {err}"))?;
            let near =
                TcpTransport::from_stream(stream, LinkId::Clients).map_err(|e| e.to_string())?;
            let mut rtts = Vec::with_capacity(RTT_PINGS);
            for _ in 0..RTT_PINGS {
                let clock = Instant::now();
                near.send(frame.clone()).map_err(|e| e.to_string())?;
                near.recv().map_err(|e| e.to_string())?;
                rtts.push(clock.elapsed().as_secs_f64() * 1e6);
            }
            near.send(Frame::Bye).map_err(|e| e.to_string())?;
            Ok(median(&mut rtts))
        })();
        let echoed = echo
            .join()
            .map_err(|_| "rtt echo thread panicked".to_string())?;
        let rtt = result?;
        echoed?;
        Ok(rtt)
    })
}

struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn run_untraced(args: &Args, prep: &mut Prepared) -> Result<Outcome, String> {
    let w = &args.workload;
    let deployment = w.deployment(args.seed);
    let mut setups = Vec::with_capacity(SETUP_LAUNCHES);
    let mut chain = None;
    for tag in 0..SETUP_LAUNCHES {
        let launched = Chain::launch(&deployment, &args.bin_dir, &args.out_dir, tag)?;
        setups.push(launched.setup_s);
        if tag + 1 < SETUP_LAUNCHES {
            launched.shutdown(SHUTDOWN_TIMEOUT)?;
        } else {
            chain = Some(launched);
        }
    }
    let chain = chain.expect("at least one launch");
    let weights = chain::weights(&prep.gen_cfg, &prep.batches);
    let phases = [
        warmup(w),
        Phase {
            seconds: args.seconds,
            rounds: prep.timed_rounds(w),
            traced: false,
        },
    ];
    let mut logs = chain::drive(&chain, &prep.batches, &weights, &phases)?;
    let rss_kb = chain.peak_rss_kb()?;
    chain.shutdown(SHUTDOWN_TIMEOUT)?;
    prep.time_client(1)?;

    let checked = check_all(args, prep, &mut logs);
    let timed = phase_stats(&logs, &prep.batches, &checked.failed_per_round, 1)?;
    let mut latencies = timed.latencies_s.clone();
    let mut metrics = Metrics::new();
    put(&mut metrics, "msgs_per_s", timed.msgs_per_s(), "1/s");
    put(
        &mut metrics,
        "latency_p50_s",
        percentile(&mut latencies, 0.5),
        "s",
    );
    put(
        &mut metrics,
        "latency_p90_s",
        percentile(&mut latencies, 0.9),
        "s",
    );
    put(
        &mut metrics,
        "cpu_us_per_msg",
        timed.cpu_s.iter().sum::<f64>() * 1e6 / timed.msgs as f64,
        "us",
    );
    put(
        &mut metrics,
        "client_bytes_per_msg",
        timed.bytes as f64 / timed.msgs as f64,
        "B",
    );
    put(&mut metrics, "server_rss_mb", rss_kb as f64 / 1024.0, "MB");
    put(&mut metrics, "setup_s", median(&mut setups), "s");
    let mut notes = vec![format!(
        "timed phase: {} rounds, {} messages, {:.3} s wall; setup launches {:?}",
        timed.rounds,
        timed.msgs,
        timed.wall_s,
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    )];
    notes.extend(exhausted("timed", &timed, &phases[1]));
    Ok(Outcome {
        metrics,
        attempted: checked.attempted,
        failed: checked.failed,
        problems: checked.problems,
        notes,
    })
}

fn run_traced(args: &Args, prep: &mut Prepared) -> Result<Outcome, String> {
    let w = &args.workload;
    let chain = Chain::launch(&w.deployment(args.seed), &args.bin_dir, &args.out_dir, 0)?;
    let weights = chain::weights(&prep.gen_cfg, &prep.batches);
    let half = args.seconds / 2.0;
    let timed = prep.timed_rounds(w);
    let phases = [
        warmup(w),
        Phase {
            seconds: half,
            rounds: timed / 2,
            traced: false,
        },
        Phase {
            seconds: half,
            rounds: timed - timed / 2,
            traced: true,
        },
    ];
    let mut logs = chain::drive(&chain, &prep.batches, &weights, &phases)?;
    chain.shutdown(SHUTDOWN_TIMEOUT)?;
    prep.time_client(1)?;
    let mut checked = check_all(args, prep, &mut logs);

    // The in-process replay of the same seed's leading rounds; its
    // trailers must match the deployed chain's.
    let replayed = w.replay_rounds.min(prep.batches.len());
    let mut rep = replay::replay(&prep.gen_cfg.system, args.seed, &prep.batches[..replayed])?;
    for (round, trailer) in rep.trailers.iter().enumerate() {
        if logs
            .get(round)
            .is_some_and(|log| log.reply.trailer != *trailer)
        {
            checked.fail_round(
                prep,
                round,
                "replayed trailer differs from the deployed chain's",
            );
        }
    }
    checked.problems.append(&mut rep.problems);
    let untraced = phase_stats(&logs, &prep.batches, &checked.failed_per_round, 1)?;
    let traced = phase_stats(&logs, &prep.batches, &checked.failed_per_round, 2)?;
    let rtt_us = loopback_rtt_us(&prep.batches[w.warmup_rounds].frame())?;

    let tracer = &rep.tracer;
    let totals = tracer.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6);
    let sum_ms = |pred: &dyn Fn(&str) -> bool| -> (f64, u64) {
        totals
            .iter()
            .filter(|(name, _)| pred(name))
            .fold((0.0, 0), |(ms, n), (_, (ns, count))| {
                (ms + *ns as f64 / 1e6, n + count)
            })
    };
    let rounds = rep.rounds as f64;
    let mut metrics = Metrics::new();
    // Forward time per round that no finer layer explains, over hops.
    let mut fwd_unexplained_ms = 0.0;
    for hop in 0..CHAIN_LEN {
        let fwd = total_ms(&format!("server.h{hop}.fwd")) / rounds;
        let peel = total_ms(&format!("crypto.h{hop}.peel")) / rounds;
        let gen = total_ms(&format!("noise.h{hop}.gen")) / rounds;
        let permute = total_ms(&format!("roundbuf.h{hop}.permute")) / rounds;
        put(&mut metrics, format!("server.h{hop}.fwd_ms"), fwd, "ms");
        put(
            &mut metrics,
            format!("server.h{hop}.bwd_ms"),
            total_ms(&format!("server.h{hop}.bwd")) / rounds,
            "ms",
        );
        let other = fwd - peel - gen - permute;
        fwd_unexplained_ms += other.max(0.0);
        put(&mut metrics, format!("server.h{hop}.other_ms"), other, "ms");
        put(&mut metrics, format!("crypto.h{hop}.peel_ms"), peel, "ms");
        if hop + 1 < CHAIN_LEN {
            put(&mut metrics, format!("noise.h{hop}.gen_ms"), gen, "ms");
            put(
                &mut metrics,
                format!("roundbuf.h{hop}.permute_ms"),
                permute,
                "ms",
            );
        }
    }
    let (peel_ms, _) = sum_ms(&|name| name.starts_with("crypto.") && name.ends_with(".peel"));
    put(
        &mut metrics,
        "crypto.peel_us_per_onion",
        peel_ms * 1e3 / rep.peel_attempted as f64,
        "us",
    );
    put(
        &mut metrics,
        "crypto.peel_ok_frac",
        rep.peel_ok as f64 / rep.peel_attempted as f64,
        "ratio",
    );
    let (gen_ms, _) = sum_ms(&|name| name.starts_with("noise."));
    put(
        &mut metrics,
        "noise.us_per_onion",
        gen_ms * 1e3 / (rep.noise_onions as f64).max(1.0),
        "us",
    );
    put(
        &mut metrics,
        "noise.onions_per_round",
        rep.noise_onions as f64 / rounds,
        "count",
    );
    let exchange_ms = total_ms("deaddrops.exchange");
    let deposit_ms = total_ms("deaddrops.deposit");
    put(
        &mut metrics,
        "deaddrops.exchange_ms",
        exchange_ms / (rep.conversation_rounds as f64).max(1.0),
        "ms",
    );
    put(
        &mut metrics,
        "deaddrops.tail_ms",
        (exchange_ms + deposit_ms) / rounds,
        "ms",
    );
    put(
        &mut metrics,
        "deaddrops.pair_frac",
        2.0 * rep.m2 as f64 / (rep.conversation_messages as f64).max(1.0),
        "ratio",
    );
    let (encode_ms, encodes) =
        sum_ms(&|name| name.starts_with("wire.") && name.ends_with(".encode"));
    let (decode_ms, decodes) =
        sum_ms(&|name| name.starts_with("wire.") && name.ends_with(".decode"));
    put(
        &mut metrics,
        "wire.encode_us_per_frame",
        encode_ms * 1e3 / encodes as f64,
        "us",
    );
    put(
        &mut metrics,
        "wire.decode_us_per_frame",
        decode_ms * 1e3 / decodes as f64,
        "us",
    );
    for (link, name) in replay::LINKS.iter().enumerate() {
        put(
            &mut metrics,
            format!("wire.{name}.bytes_per_msg"),
            rep.link_bytes[link] as f64 / rep.messages as f64,
            "B",
        );
    }
    put(&mut metrics, "net.rtt_us_per_frame", rtt_us, "us");

    // Replay coverage. The `copies.h*` spans duplicate forward-pass
    // work, so they leave the round wall. What no layer explains is the
    // round span's own self time (harness glue: frame building, clones)
    // plus each hop's positive `other_ms`.
    let self_ns = tracer.self_times_ns();
    let (root_ns, root_self_ns, copies_ns) = tracer.spans.iter().zip(&self_ns).fold(
        (0u64, 0u64, 0u64),
        |(wall, own, copies), (span, self_ns)| match span.parent {
            None => (wall + span.duration_ns(), own + self_ns, copies),
            Some(_) if span.name.starts_with("copies.") => (wall, own, copies + span.duration_ns()),
            Some(_) => (wall, own, copies),
        },
    );
    let real_ns = root_ns.saturating_sub(copies_ns) as f64;
    let unexplained_ns = root_self_ns as f64 + fwd_unexplained_ms * 1e6 * rounds;
    put(
        &mut metrics,
        "replay.unexplained_frac",
        unexplained_ns / real_ns,
        "ratio",
    );
    put(
        &mut metrics,
        "replay.round_ms",
        real_ns / 1e6 / rounds,
        "ms",
    );

    // Node CPU over the traced half against the layer time the replay
    // attributes to the nodes (everything but the client's side of the
    // client link and the layer calls made on copies).
    let (node_layer_ms, _) = sum_ms(&|name| {
        name.starts_with("server.")
            || name.starts_with("deaddrops.")
            || (name.starts_with("wire.")
                && name != "wire.clients.fwd.encode"
                && name != "wire.clients.bwd.decode")
    });
    let node_names = ["entry", "h0", "h1", "h2"];
    let traced_rounds = traced.rounds as f64;
    for (i, node) in node_names.iter().enumerate() {
        put(
            &mut metrics,
            format!("node.{node}.cpu_ms_per_round"),
            traced.cpu_s[i] * 1e3 / traced_rounds,
            "ms",
        );
        put(
            &mut metrics,
            format!("node.{node}.ctx_switches_per_round"),
            traced.ctx[i] as f64 / traced_rounds,
            "count",
        );
    }
    let node_cpu_s: f64 = traced.cpu_s.iter().sum();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    put(
        &mut metrics,
        "node.util",
        node_cpu_s / (traced.wall_s * nproc),
        "ratio",
    );
    put(
        &mut metrics,
        "node.overhead_ms_per_round",
        node_cpu_s * 1e3 / traced_rounds - node_layer_ms / rounds,
        "ms",
    );
    put(
        &mut metrics,
        "engine.window_wait_ms_per_round",
        traced.wait_ns as f64 / 1e6 / traced_rounds,
        "ms",
    );
    put(
        &mut metrics,
        "engine.occupied_mean",
        traced.occupied as f64 / traced_rounds,
        "count",
    );
    put(
        &mut metrics,
        "client.build_us_per_msg",
        prep.build_us_per_msg(),
        "us",
    );
    put(
        &mut metrics,
        "client.open_us_per_msg",
        checked.open_us_per_msg(),
        "us",
    );
    put(
        &mut metrics,
        "trace.overhead_frac",
        1.0 - traced.msgs_per_s() / untraced.msgs_per_s(),
        "ratio",
    );
    put(&mut metrics, "inputs.gen_s", prep.gen_s, "s");

    // Spans out: the replay's, then the client's traced-half rounds.
    let mut client = trace::Tracer::default();
    for (round, log) in logs.iter().enumerate().filter(|(_, log)| log.phase == 2) {
        let root = client.spans.len();
        let span = |name: &str, start_ns: u64, end_ns: u64, parent| trace::Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            round: round as u64,
        };
        let sent_end = log.sent_ns + log.send_ns;
        client
            .spans
            .push(span("round", log.sent_ns - log.wait_ns, log.done_ns, None));
        client.spans.push(span(
            "window_wait",
            log.sent_ns - log.wait_ns,
            log.sent_ns,
            Some(root),
        ));
        client
            .spans
            .push(span("send", log.sent_ns, sent_end, Some(root)));
        client
            .spans
            .push(span("reply", sent_end, log.done_ns, Some(root)));
    }
    let stem = format!("{}-{}", w.name, args.seed);
    tracer.write_jsonl(&args.out_dir.join(format!("replay-spans-{stem}.jsonl")))?;
    client.write_jsonl(&args.out_dir.join(format!("client-spans-{stem}.jsonl")))?;
    let samples: Vec<Value> = logs
        .iter()
        .enumerate()
        .filter_map(|(round, log)| {
            log.cpu_ns
                .as_ref()
                .map(|cpu| json!({"round": round, "done_ns": log.done_ns, "cpu_ns": cpu.clone()}))
        })
        .collect();
    std::fs::write(
        args.out_dir.join(format!("node-samples-{stem}.json")),
        vuvuzela::serde_json::to_string_pretty(&Value::Array(samples)).unwrap_or_default(),
    )
    .map_err(|err| format!("cannot write node samples: {err}"))?;

    let mut notes = vec![
        format!(
            "wire: untraced half {:.1} msgs/s over {} rounds, traced half {:.1} msgs/s over {} rounds",
            untraced.msgs_per_s(),
            untraced.rounds,
            traced.msgs_per_s(),
            traced.rounds
        ),
        format!(
            "replay: {} rounds, deposit {:.4} ms per dialing round, spans in {}",
            rep.rounds,
            deposit_ms / ((rep.rounds - rep.conversation_rounds) as f64).max(1.0),
            args.out_dir.display()
        ),
    ];
    notes.extend(exhausted("untraced", &untraced, &phases[1]));
    notes.extend(exhausted("traced", &traced, &phases[2]));
    Ok(Outcome {
        metrics,
        attempted: checked.attempted,
        failed: checked.failed,
        problems: checked.problems,
        notes,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|err| format!("cannot create {}: {err}", args.out_dir.display()))?;
    let mut prep = prepare(args)?;
    let mut outcome = if args.trace {
        run_traced(args, &mut prep)?
    } else {
        run_untraced(args, &mut prep)?
    };
    outcome.notes.insert(
        0,
        format!(
            "inputs: {} rounds, {} messages, generated in {:.3} s, sha256 {}",
            prep.batches.len(),
            prep.batches.iter().map(ClientBatch::count).sum::<usize>(),
            prep.gen_s,
            prep.digest
        ),
    );
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    chain::start_watchdog(Duration::from_secs_f64(100.0 + 2.0 * args.seconds));
    let machine = procfs::fingerprint();
    println!("machine: {}", compact(&machine));
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut problems = outcome.problems;
    let mut metrics = BTreeMap::new();
    for (name, (value, unit)) in &outcome.metrics {
        println!("{name:>34} {value:>14.6} {unit}");
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
        metrics.insert(name.clone(), json!({"value": *value, "unit": *unit}));
    }
    for problem in problems.iter().take(20) {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = outcome.failed == 0 && problems.is_empty();
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    let mut record = result.clone();
    if let Value::Object(map) = &mut record {
        map.insert("machine".to_string(), machine);
    }
    let mode = if args.trace { "trace" } else { "e2e" };
    let path = args.out_dir.join(format!(
        "result-{}-{}-{mode}.json",
        args.workload.name, args.seed
    ));
    if let Err(err) = std::fs::write(&path, compact(&record)) {
        eprintln!("perfbench: cannot write {}: {err}", path.display());
    }
    println!("{}", compact(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
