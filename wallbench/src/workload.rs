//! The four workloads and the execution of one operation: spec in, outputs
//! verified on every rank, counters and rank timings out.

use eag_core::{Algorithm, Collective, MetricSet};
use eag_crypto::Key;
use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology, Wiretap};
use eag_runtime::{
    try_run, try_run_crashable, CipherSuite, CollectiveError, DataMode, Metrics, ProcCtx,
    RetryPolicy, Session, WorldSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload drives its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The main thread runs one collective at a time through `try_run`.
    Single,
    /// Two client threads, one tenant each, admit a session per operation
    /// through one `SessionManager` and run the collective inside it.
    Sessions,
    /// The main thread runs one crash-tolerant collective at a time
    /// through `try_run_crashable` and `Collective::recover`.
    Recover,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// How operations are driven.
    pub load: Load,
    /// The encrypted collective under test.
    pub collective: Collective,
    /// Its unencrypted twin at the same shape (for the crypto overhead).
    pub plain: Collective,
    /// Processes.
    pub p: usize,
    /// Nodes.
    pub nodes: usize,
    /// Block size in bytes.
    pub m: usize,
    /// Cluster profile name.
    pub profile: &'static str,
    /// Real bytes (true) or phantom lengths.
    pub real: bool,
    /// Suites used, rotated per operation.
    pub suites: &'static [CipherSuite],
    /// NIC contention in the cost model.
    pub nic_contention: bool,
    /// Planned soft crashes as (rank, send step).
    pub crashes: &'static [(usize, u64)],
    /// Set-ups per run; `setup_s` is the median of the least-stolen.
    pub setups: usize,
    /// Whether the rope copy counters repeat exactly. They do not for
    /// real-mode HS2: which rank fetches a shared ciphertext last, and so
    /// opens it in place instead of copying it, depends on the schedule.
    pub rope_exact: bool,
}

const AES_GCM: &[CipherSuite] = &[CipherSuite::AesGcm128];

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "oring-real-p128",
            why: "O-Ring all-gather at the paper's Noleland scale with real bytes: AEAD, rope copies and \
                  byte handling dominate the wall time",
            load: Load::Single,
            collective: Collective::Allgather(Algorithm::ORing),
            plain: Collective::Allgather(Algorithm::Ring),
            p: 128,
            nodes: 8,
            m: 64 * 1024,
            profile: "noleland",
            real: true,
            suites: AES_GCM,
            nic_contention: true,
            crashes: &[],
            setups: 5,
            rope_exact: true,
        },
        // Not listed in BENCHMARK.json: on a 2-core host its per-run median
        // spreads by about a third from run to run (1,024 rank threads, ~0.7M
        // context switches per operation), more than any bound a gated
        // workload may have. It stays here to be run by hand.
        Workload {
            name: "hs2-phantom-p1024",
            why: "HS2 all-gather at the paper's Bridges-2 scale in phantom mode: no bytes move, so \
                  spawn, scheduling and transport take all of the time",
            load: Load::Single,
            collective: Collective::Allgather(Algorithm::Hs2),
            plain: Collective::Allgather(Algorithm::HsPlain),
            p: 1024,
            nodes: 16,
            m: 64 * 1024,
            profile: "bridges2",
            real: false,
            suites: AES_GCM,
            nic_contention: true,
            crashes: &[],
            setups: 3,
            rope_exact: true,
        },
        Workload {
            name: "sessions-small-real",
            why: "Two tenants in a closed loop through one session manager, 1 KiB HS2 at p=16: fixed \
                  per-message, per-world and admission costs dominate",
            load: Load::Sessions,
            collective: Collective::Allgather(Algorithm::Hs2),
            plain: Collective::Allgather(Algorithm::HsPlain),
            p: 16,
            nodes: 4,
            m: 1024,
            profile: "noleland",
            real: true,
            suites: &CipherSuite::ALL,
            nic_contention: true,
            crashes: &[],
            setups: 41,
            rope_exact: false,
        },
        Workload {
            name: "recover-oring-f2",
            why: "Crash-tolerant O-Ring with two soft crashes: the only workload that runs failure \
                  detection, agreement and the shrink re-run",
            load: Load::Recover,
            collective: Collective::Allgather(Algorithm::ORing),
            plain: Collective::Allgather(Algorithm::Ring),
            p: 32,
            nodes: 4,
            m: 16 * 1024,
            profile: "noleland",
            real: true,
            suites: AES_GCM,
            nic_contention: false,
            crashes: &[(3, 2), (17, 5)],
            setups: 21,
            rope_exact: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The input seed of operation `i` of a run seeded with `seed`
/// (splitmix64 of the pair, so neighbouring operations get unrelated data).
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one operation runs: the workload's own collective or one of the
/// twins the per-layer metrics are derived from.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Label used in spans and for the exact-count reference.
    pub label: &'static str,
    /// The collective to run.
    pub collective: Collective,
    /// Phantom lengths instead of the workload's own data mode.
    pub phantom: bool,
    /// NIC contention on or off.
    pub nic_contention: bool,
    /// Inject the workload's planned crashes.
    pub crashes: bool,
    /// Capture inter-node frame bytes for the plaintext audit.
    pub capture_wire: bool,
}

impl Variant {
    /// The workload's own operation.
    pub fn main(w: &Workload) -> Variant {
        Variant {
            label: "op",
            collective: w.collective,
            phantom: !w.real,
            nic_contention: w.nic_contention,
            crashes: !w.crashes.is_empty(),
            capture_wire: false,
        }
    }
}

/// Per-rank wall and CPU stamps of one operation (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct RankTimes {
    /// The rank.
    pub rank: usize,
    /// Entry into the rank closure.
    pub entry: Instant,
    /// Start of `Collective::run`/`recover`.
    pub coll_start: Instant,
    /// Its end.
    pub coll_end: Instant,
    /// Thread CPU time spent inside it.
    pub coll_cpu: Duration,
    /// End of `Collective::verify`.
    pub verify_end: Instant,
    /// Thread CPU time spent in it.
    pub verify_cpu: Duration,
    /// Exit from the rank closure (after the output is dropped).
    pub exit: Instant,
}

/// What one rank reports back.
struct RankOut {
    verified: bool,
    /// Canonical encoding of the recovery decision (failed set + epochs).
    decision: Vec<u8>,
    failed: Vec<usize>,
    epochs: u64,
    times: Option<RankTimes>,
}

/// Sums of the per-rank `Metrics` counters of one operation. Every field
/// depends only on the operation's shape, so it must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub seal_ops: u64,
    pub seal_bytes: u64,
    pub open_ops: u64,
    pub open_bytes: u64,
    pub memcpy_bytes: u64,
    pub buf_allocs: u64,
    pub msgs: u64,
    pub wire_bytes: u64,
    pub inter_node_bytes: u64,
    pub retransmits: u64,
    pub crashes_detected: u64,
}

impl Counts {
    fn of(metrics: &[Metrics]) -> Counts {
        let s = Metrics::component_sum(metrics);
        Counts {
            seal_ops: s.enc_rounds,
            seal_bytes: s.enc_bytes,
            open_ops: s.dec_rounds,
            open_bytes: s.dec_bytes,
            memcpy_bytes: s.memcpy_bytes,
            buf_allocs: s.buf_allocs,
            msgs: s.comm_rounds,
            wire_bytes: s.bytes_sent,
            inter_node_bytes: s.inter_bytes_sent,
            retransmits: s.retransmits,
            crashes_detected: s.crashes_detected,
        }
    }
}

/// The paper's critical-path metrics (per-rank maxima) of one operation.
pub fn critical_path(metrics: &[Metrics]) -> MetricSet {
    let mx = Metrics::component_max(metrics);
    MetricSet {
        rc: mx.comm_rounds,
        sc: mx.sc_payload(),
        re: mx.enc_rounds,
        se: mx.enc_bytes,
        rd: mx.dec_rounds,
        sd: mx.dec_bytes,
    }
}

/// The outcome of one operation.
pub struct OpResult {
    /// Wall time from spec in to verified outputs out.
    pub wall: Duration,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
    /// Counter sums over ranks.
    pub counts: Counts,
    /// Critical-path metrics (`None` when the run failed).
    pub critical: Option<MetricSet>,
    /// Virtual Hockney latency of the run.
    pub model_latency_us: f64,
    /// Surviving ranks.
    pub survivors: usize,
    /// Recovery epochs agreed by the survivors.
    pub epochs: u64,
    /// Start of the runner call.
    pub run_start: Instant,
    /// Return of the runner call.
    pub run_end: Instant,
    /// Per-rank stamps of surviving ranks (traced runs only).
    pub ranks: Vec<RankTimes>,
    /// The run's wiretap.
    pub wiretap: Option<Arc<Wiretap>>,
}

/// The world spec of `variant` of workload `w` on input seed `seed`.
pub fn world_spec(w: &Workload, v: &Variant, seed: u64, suite: CipherSuite) -> WorldSpec {
    let prof = profile::by_name(w.profile).expect("workload profiles are built in");
    let mode = if v.phantom {
        DataMode::Phantom
    } else {
        DataMode::Real { seed }
    };
    let mut spec = WorldSpec::new(Topology::new(w.p, w.nodes, Mapping::Block), prof, mode);
    spec.suite = suite;
    spec.nic_contention = v.nic_contention;
    spec.capture_wire = v.capture_wire;
    if v.crashes {
        spec.faults = FaultPlan {
            crashes: w
                .crashes
                .iter()
                .map(|&(rank, step)| Crash::before(rank, step))
                .collect(),
            ..FaultPlan::default()
        };
        spec.retry = RetryPolicy {
            attempt_timeout: Duration::from_secs(5),
            max_attempts: 3,
            backoff: 2.0,
        };
        spec.recv_timeout = Some(Duration::from_secs(60));
    }
    spec
}

/// The rank body: run (or recover) the collective, verify the output
/// against the input pattern of `seed`, and optionally stamp the times.
fn rank_body(
    ctx: &mut ProcCtx,
    c: Collective,
    m: usize,
    seed: u64,
    recover: bool,
    traced: bool,
) -> RankOut {
    let entry = Instant::now();
    let me = ctx.rank();
    let cpu0 = traced.then(crate::sys::thread_cpu);
    let coll_start = Instant::now();
    let (output, decision, failed, epochs) = if recover {
        let d = c.recover(ctx, m);
        let decision = d.canonical_header();
        let survivors = d.survivors();
        (Ok((d.output, survivors)), decision, d.failed, d.epochs)
    } else {
        (Err(c.run(ctx, m)), Vec::new(), Vec::new(), 0)
    };
    let coll_end = Instant::now();
    let cpu1 = traced.then(crate::sys::thread_cpu);
    let verified = catch_unwind(AssertUnwindSafe(|| match &output {
        Ok((out, survivors)) => out.verify_members(seed, survivors),
        Err(out) => c.verify(me, out, seed),
    }))
    .is_ok();
    let verify_end = Instant::now();
    let cpu2 = traced.then(crate::sys::thread_cpu);
    drop(output);
    let times = cpu0
        .zip(cpu1)
        .zip(cpu2)
        .map(|((cpu0, cpu1), cpu2)| RankTimes {
            rank: me,
            entry,
            coll_start,
            coll_end,
            coll_cpu: cpu1 - cpu0,
            verify_end,
            verify_cpu: cpu2 - cpu1,
            exit: Instant::now(),
        });
    RankOut {
        verified,
        decision,
        failed,
        epochs,
        times,
    }
}

/// A runner's report reduced to what the benchmark checks.
struct Raw {
    outputs: Vec<Option<RankOut>>,
    crashed: Vec<usize>,
    latency_us: f64,
    metrics: Vec<Metrics>,
    wiretap: Arc<Wiretap>,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(e) = payload.downcast_ref::<CollectiveError>() {
        format!("{e:?}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic".to_string()
    }
}

/// Runs one operation of `v` over `w` on input seed `seed` and checks it.
/// With `session` the world runs inside that admitted session.
pub fn run_op(
    w: &Workload,
    v: &Variant,
    seed: u64,
    suite: CipherSuite,
    traced: bool,
    session: Option<&Session>,
) -> OpResult {
    let spec = world_spec(w, v, seed, suite);
    let (c, m, recover) = (v.collective, w.m, v.crashes);
    let body = move |ctx: &mut ProcCtx| rank_body(ctx, c, m, seed, recover, traced);
    let run_start = Instant::now();
    let raw: Result<Raw, String> = if recover {
        match catch_unwind(AssertUnwindSafe(|| try_run_crashable(&spec, body))) {
            Ok(Ok(r)) => Ok(Raw {
                outputs: r.outputs,
                crashed: r.crashed,
                latency_us: r.latency_us,
                metrics: r.metrics,
                wiretap: r.wiretap,
            }),
            Ok(Err(e)) => Err(format!("{e:?}")),
            Err(p) => Err(panic_text(p)),
        }
    } else {
        let run = || match session {
            Some(s) => Ok(s.run(&spec, body)),
            None => try_run(&spec, body),
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(r)) => Ok(Raw {
                outputs: r.outputs.into_iter().map(Some).collect(),
                crashed: Vec::new(),
                latency_us: r.latency_us,
                metrics: r.metrics,
                wiretap: r.wiretap,
            }),
            Ok(Err(e)) => Err(format!("{e:?}")),
            Err(p) => Err(panic_text(p)),
        }
    };
    let run_end = Instant::now();
    let mut res = OpResult {
        wall: Duration::ZERO,
        failure: None,
        counts: Counts::default(),
        critical: None,
        model_latency_us: 0.0,
        survivors: 0,
        epochs: 0,
        run_start,
        run_end,
        ranks: Vec::new(),
        wiretap: None,
    };
    match raw {
        Err(e) => res.failure = Some(e),
        Ok(raw) => {
            res.failure = check(w, recover, &raw).err();
            res.counts = Counts::of(&raw.metrics);
            res.critical = Some(critical_path(&raw.metrics));
            res.model_latency_us = raw.latency_us;
            let live: Vec<&RankOut> = raw.outputs.iter().flatten().collect();
            res.survivors = live.len();
            res.epochs = live.first().map_or(0, |o| o.epochs);
            res.ranks = live.iter().filter_map(|o| o.times).collect();
            res.wiretap = Some(raw.wiretap);
        }
    }
    res.wall = run_start.elapsed();
    res
}

/// Checks an operation's outputs: every live rank verified, and under
/// planned crashes exactly the planned ranks died, every survivor agreed
/// on that failed set, and their recovery decisions are identical.
fn check(w: &Workload, recover: bool, raw: &Raw) -> Result<(), String> {
    if let Some(rank) = raw
        .outputs
        .iter()
        .position(|o| o.as_ref().is_some_and(|o| !o.verified))
    {
        return Err(format!("rank {rank}: output failed verification"));
    }
    if !recover {
        return Ok(());
    }
    let mut planned: Vec<usize> = w.crashes.iter().map(|&(r, _)| r).collect();
    planned.sort_unstable();
    let mut crashed = raw.crashed.clone();
    crashed.sort_unstable();
    if crashed != planned {
        return Err(format!("crashed {crashed:?}, planned {planned:?}"));
    }
    let live: Vec<&RankOut> = raw.outputs.iter().flatten().collect();
    if live.len() != w.p - planned.len() {
        return Err(format!(
            "{} survivors, expected {}",
            live.len(),
            w.p - planned.len()
        ));
    }
    for o in &live {
        if o.failed != planned {
            return Err(format!(
                "agreed failed set {:?}, planned {planned:?}",
                o.failed
            ));
        }
        if o.decision != live[0].decision {
            return Err("survivors disagree on the recovery decision".into());
        }
    }
    Ok(())
}

/// Runs the plaintext audit over a captured wiretap: no frame classified
/// as plaintext, and no rank's input block anywhere in the captured bytes.
pub fn audit(w: &Workload, seed: u64, tap: &Wiretap) -> Result<(), String> {
    if tap.saw_plaintext_frame() {
        return Err("a frame crossed the wire as plaintext".into());
    }
    if w.real {
        for rank in 0..w.p {
            if tap.contains(&eag_runtime::pattern_block(seed, rank, w.m)) {
                return Err(format!("rank {rank}'s input block is on the wire"));
            }
        }
    }
    Ok(())
}

/// The service master key of the session workload, derived from the seed.
pub fn master_key(seed: u64) -> Key {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&op_seed(seed, u64::MAX).to_le_bytes());
    bytes[8..].copy_from_slice(&op_seed(seed, u64::MAX - 1).to_le_bytes());
    Key::from_bytes(bytes)
}
