//! The two kinds of run. An untraced run measures the end-to-end metrics;
//! a traced run stamps every layer boundary it can see from outside, runs
//! the twins the derived layer metrics need, and measures the per-layer
//! metrics.

use crate::spans::Spans;
use crate::stats::{median, ms, quantile};
use crate::sys::{self, Usage};
use crate::workload::{self, op_seed, run_op, Counts, Load, OpResult, Variant, Workload};
use eag_core::MetricSet;
use eag_crypto::{Aead, Nonce};
use eag_runtime::{CipherSuite, SessionConfig, SessionManager};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub info: Vec<String>,
}

/// The run's correctness record: every operation checked, and the
/// shape-determined counters of each variant pinned to their first
/// reading.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
    refs: Vec<(&'static str, Counts, Option<MetricSet>)>,
    /// Rope counters (memcpy bytes, buffers) of every operation of the
    /// workload's own variant.
    rope: Vec<(u64, u64)>,
    /// Virtual latency of the workload's own operations, µs.
    model_us: Vec<f64>,
}

impl Ledger {
    fn observe(&mut self, w: &Workload, v: &Variant, r: &OpResult) {
        self.attempted += 1;
        if let Some(f) = &r.failure {
            self.fail(format!("{}: {f}", v.label));
            return;
        }
        if v.label == "op" {
            self.rope.push((r.counts.memcpy_bytes, r.counts.buf_allocs));
            self.model_us.push(r.model_latency_us);
        }
        let counts = if w.rope_exact {
            r.counts
        } else {
            Counts {
                memcpy_bytes: 0,
                buf_allocs: 0,
                ..r.counts
            }
        };
        let mut errors = Vec::new();
        match self.refs.iter().find(|(label, ..)| *label == v.label) {
            None => self.refs.push((v.label, counts, r.critical)),
            Some((_, c, critical)) => {
                if *c != counts || *critical != r.critical {
                    errors.push(format!(
                        "counters drifted from {c:?} {critical:?} to {counts:?} {:?}",
                        r.critical
                    ));
                }
            }
        }
        if !v.crashes {
            if let Some(predicted) = v.collective.predict(w.p, w.nodes, w.m) {
                if r.critical != Some(predicted) {
                    errors.push(format!(
                        "critical path {:?} differs from the prediction {predicted:?}",
                        r.critical
                    ));
                }
            }
        }
        if !errors.is_empty() {
            self.fail(format!("{}: {}", v.label, errors.join("; ")));
        }
    }

    fn fail(&mut self, msg: String) {
        // Keep the first few messages; the count is what matters.
        if self.failures.len() < 64 {
            eprintln!("failure: {msg}");
        }
        self.failures.push(msg);
    }

    /// What the run saw of the virtual latency and the rope counters of
    /// the workload's own operations.
    fn summary(&self) -> Vec<String> {
        let range = |v: Vec<f64>| {
            if v.is_empty() {
                return "not seen".to_string();
            }
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if lo == hi {
                format!("{lo} on every op")
            } else {
                format!("{lo}..{hi}")
            }
        };
        let n = self.model_us.len();
        vec![
            format!(
                "model_latency_us {} ({n} ops)",
                range(self.model_us.clone())
            ),
            format!(
                "rope.memcpy_bytes {}, rope.buf_allocs {} ({n} ops)",
                range(self.rope.iter().map(|r| r.0 as f64).collect()),
                range(self.rope.iter().map(|r| r.1 as f64).collect())
            ),
        ]
    }

    fn counts(&self, label: &str) -> Counts {
        self.refs
            .iter()
            .find(|(l, ..)| *l == label)
            .map_or_else(Counts::default, |(_, c, _)| *c)
    }
}

/// What set-up builds: the AEADs of every suite the workload uses (CPU
/// dispatch happens in their constructors) and, for the session workload,
/// the session manager.
struct Env {
    aeads: Vec<Box<dyn Aead>>,
    manager: Option<SessionManager>,
}

fn setup(w: &Workload, seed: u64) -> Env {
    let key = workload::master_key(seed);
    let aeads = w.suites.iter().map(|s| s.aead_for_key(&key)).collect();
    let manager = (w.load == Load::Sessions).then(|| {
        let mut cfg = SessionConfig::new(key);
        cfg.max_live = 2;
        SessionManager::new(cfg)
    });
    Env { aeads, manager }
}

/// The suite of operation `i` (suites rotate per operation).
fn suite(w: &Workload, i: u64) -> CipherSuite {
    w.suites[(i % w.suites.len() as u64) as usize]
}

/// One session operation: admit, run inside the session, retire.
struct SessionOp {
    /// Start and end of `SessionManager::admit`.
    admit: (Instant, Instant),
    /// Start and end of dropping the `Session`.
    retire: (Instant, Instant),
    queue_depth: usize,
    result: OpResult,
}

impl SessionOp {
    fn wall(&self) -> Duration {
        self.retire.1 - self.admit.0
    }
}

fn session_op(
    w: &Workload,
    mgr: &SessionManager,
    tenant: u64,
    seed: u64,
    suite: CipherSuite,
    traced: bool,
) -> Result<SessionOp, String> {
    let queue_depth = mgr.queue_depth(tenant);
    let t0 = Instant::now();
    let session = mgr.admit(tenant).map_err(|e| format!("admission: {e:?}"))?;
    let t1 = Instant::now();
    let result = run_op(w, &Variant::main(w), seed, suite, traced, Some(&session));
    let t2 = Instant::now();
    drop(session);
    Ok(SessionOp {
        admit: (t0, t1),
        retire: (t2, Instant::now()),
        queue_depth,
        result,
    })
}

/// Runs warm-up operations of the workload: one per tenant for the session
/// workload, one otherwise.
fn warm_up(w: &Workload, env: &Env, seed: u64, ledger: &mut Ledger) -> Duration {
    let main = Variant::main(w);
    let t = Instant::now();
    match &env.manager {
        Some(mgr) => {
            for tenant in 0..2u64 {
                let s = op_seed(seed, (tenant << 40) | 0xFFFF_FFFF);
                match session_op(w, mgr, tenant, s, suite(w, tenant), false) {
                    Ok(op) => ledger.observe(w, &main, &op.result),
                    Err(e) => {
                        ledger.attempted += 1;
                        ledger.fail(e);
                    }
                }
            }
        }
        None => {
            let r = run_op(
                w,
                &main,
                op_seed(seed, u64::MAX >> 1),
                suite(w, 0),
                false,
                None,
            );
            ledger.observe(w, &main, &r);
        }
    }
    t.elapsed()
}

/// A traced operation: the runner's result, its wall time in ms, and the
/// admit and retire stamps of a session operation.
struct Traced {
    r: OpResult,
    wall: f64,
    session: Option<((Instant, Instant), (Instant, Instant))>,
}

/// How often a timed window reads the process usage and the machine's
/// stolen CPU ticks (at the first operation completed after each period).
const MARK_EVERY: Duration = Duration::from_millis(250);

/// A point of a timed window: the process usage, the machine's CPU ticks
/// and the number of operations completed at that moment.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    usage: Usage,
    ticks: Option<(u64, u64)>,
    ops: usize,
}

impl Mark {
    fn now(ops: usize) -> Mark {
        Mark {
            at: Instant::now(),
            usage: Usage::now(),
            ticks: sys::cpu_ticks(),
            ops,
        }
    }
}

/// The samples of a timed window.
#[derive(Default)]
struct Window {
    /// Every operation's wall time in ms, in completion order.
    walls: Vec<f64>,
    /// The window's start, a mark about every `MARK_EVERY`, and its end.
    marks: Vec<Mark>,
    /// Untraced operation wall times, ms.
    untraced_ms: Vec<f64>,
    traced: Vec<Traced>,
    queue_depth_max: usize,
    /// Operations completed and the window's length.
    ops: u64,
    elapsed: Duration,
    usage: Usage,
}

/// Runs operations closed-loop for `seconds`. With `alternate`, every
/// other operation is traced.
fn window(
    w: &Workload,
    env: &Env,
    seed: u64,
    seconds: f64,
    alternate: bool,
    ledger: &mut Ledger,
) -> Window {
    let main = Variant::main(w);
    let first = Mark::now(0);
    let (start, usage0) = (first.at, first.usage);
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut win = Window {
        marks: vec![first],
        ..Window::default()
    };
    match &env.manager {
        None => {
            let mut i = 0u64;
            while Instant::now() < deadline {
                let traced = alternate && i.is_multiple_of(2);
                let mut r = run_op(w, &main, op_seed(seed, i), suite(w, i), traced, None);
                ledger.observe(w, &main, &r);
                let wall = ms(r.wall);
                win.complete(wall);
                if traced {
                    r.wiretap = None;
                    win.traced.push(Traced {
                        r,
                        wall,
                        session: None,
                    });
                } else {
                    win.untraced_ms.push(wall);
                }
                i += 1;
            }
        }
        Some(mgr) => {
            let shared = Mutex::new((std::mem::take(ledger), std::mem::take(&mut win)));
            std::thread::scope(|s| {
                for tenant in 0..2u64 {
                    let shared = &shared;
                    s.spawn(move || {
                        let mut i = 0u64;
                        while Instant::now() < deadline {
                            let traced = alternate && i.is_multiple_of(2);
                            let seed = op_seed(seed, (tenant << 40) | i);
                            let op = session_op(w, mgr, tenant, seed, suite(w, i + tenant), traced);
                            let mut guard = shared.lock().expect("a client thread panicked");
                            let (ledger, win) = &mut *guard;
                            match op {
                                Err(e) => {
                                    ledger.attempted += 1;
                                    ledger.fail(e);
                                }
                                Ok(mut op) => {
                                    ledger.observe(w, &main, &op.result);
                                    win.queue_depth_max = win.queue_depth_max.max(op.queue_depth);
                                    let wall = ms(op.wall());
                                    win.complete(wall);
                                    if traced {
                                        op.result.wiretap = None;
                                        win.traced.push(Traced {
                                            r: op.result,
                                            wall,
                                            session: Some((op.admit, op.retire)),
                                        });
                                    } else {
                                        win.untraced_ms.push(wall);
                                    }
                                }
                            }
                            i += 1;
                        }
                    });
                }
            });
            let (l, wn) = shared.into_inner().expect("a client thread panicked");
            *ledger = l;
            win = wn;
        }
    }
    let end = Mark::now(win.walls.len());
    win.elapsed = end.at - start;
    win.usage = end.usage.since(&usage0);
    win.ops = win.walls.len() as u64;
    if win.marks.last().is_some_and(|m| m.ops < end.ops) {
        win.marks.push(end);
    }
    win
}

impl Window {
    /// Records a completed operation, and a mark when `MARK_EVERY` has
    /// passed since the last one.
    fn complete(&mut self, wall: f64) {
        self.walls.push(wall);
        if self
            .marks
            .last()
            .is_some_and(|m| m.at.elapsed() >= MARK_EVERY)
        {
            self.marks.push(Mark::now(self.walls.len()));
        }
    }
}

/// The least share of a window's time from which the wall-clock metrics
/// are taken, and of the set-up time from which `setup_s` is: the
/// least-stolen part. Every stretch or set-up that lost no more than
/// `CLEAN_STEAL` of the machine's CPU is taken as well.
const CLEAN_SHARE: f64 = 0.1;
const SETUP_SHARE: f64 = 0.5;
const CLEAN_STEAL: f64 = 0.02;

/// The machine's (stolen, total) CPU ticks between two readings.
fn ticks_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> (u64, u64) {
    a.zip(b).map_or((0, 0), |(a, b)| (b.0 - a.0, b.1 - a.1))
}

/// The stolen share of (stolen, total) ticks.
fn stolen_share((stolen, total): (u64, u64)) -> f64 {
    stolen as f64 / total.max(1) as f64
}

/// The indices of `items`, each a (stolen share, seconds) pair, in order of
/// stolen share, least first, until they hold `share` of the seconds and
/// the next one lost more than `CLEAN_STEAL`. On a shared VM the
/// hypervisor steals CPU in bursts of seconds, at times more than half of
/// it. Wall time grows with the theft, several times over for ranks that
/// wait on each other, so a burst moves the wall-clock metrics of a run by
/// more than any bound they may have. Where `/proc/stat` cannot be read
/// every item counts as unstolen, and all are taken.
fn least_stolen(items: &[(f64, f64)], share: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[a].0.total_cmp(&items[b].0));
    let all: f64 = items.iter().map(|i| i.1).sum();
    let mut taken = 0.0;
    let mut out = Vec::new();
    for i in order {
        if taken >= share * all && items[i].0 > CLEAN_STEAL {
            break;
        }
        taken += items[i].1;
        out.push(i);
    }
    out
}

/// The wall-clock metrics of a window's least-stolen stretches.
struct Clean {
    /// Median wall ms of the operations completed in them.
    op_ms_p50: f64,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
    /// Their share of the window's time.
    share: f64,
    /// The share of the machine's CPU time the hypervisor stole, in them
    /// and over the whole window.
    steal: f64,
    steal_all: f64,
}

/// Measures the operations completed in the least-stolen stretches between
/// consecutive marks (see `least_stolen`).
fn clean(win: &Window) -> Clean {
    let ticks: Vec<(u64, u64)> = win
        .marks
        .windows(2)
        .map(|m| ticks_between(m[0].ticks, m[1].ticks))
        .collect();
    let secs = |m: &[Mark]| (m[1].at - m[0].at).as_secs_f64();
    let items: Vec<(f64, f64)> = win
        .marks
        .windows(2)
        .zip(&ticks)
        .map(|(m, &t)| (stolen_share(t), secs(m)))
        .collect();
    let (mut taken, mut cpu_ms, mut stolen, mut total) = (0.0, 0.0, 0, 0);
    let mut walls = Vec::new();
    for i in least_stolen(&items, CLEAN_SHARE) {
        let (a, b) = (&win.marks[i], &win.marks[i + 1]);
        taken += items[i].1;
        cpu_ms += ms(b.usage.since(&a.usage).cpu());
        stolen += ticks[i].0;
        total += ticks[i].1;
        walls.extend_from_slice(&win.walls[a.ops..b.ops]);
    }
    let all: f64 = items.iter().map(|i| i.1).sum();
    let all_ticks = ticks
        .iter()
        .fold((0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1));
    Clean {
        op_ms_p50: median(&walls),
        ops_per_s: walls.len() as f64 / taken.max(f64::MIN_POSITIVE),
        cpu_ms_per_op: cpu_ms / walls.len().max(1) as f64,
        share: taken / all.max(f64::MIN_POSITIVE),
        steal: stolen_share((stolen, total)),
        steal_all: stolen_share(all_ticks),
    }
}

/// Runs the one operation per run that captures the wire, and audits it.
/// Returns the audit's wall time and the number of frames captured.
fn audit_op(w: &Workload, env: &Env, seed: u64, ledger: &mut Ledger) -> (f64, usize) {
    let v = Variant {
        label: "audit",
        capture_wire: w.real,
        ..Variant::main(w)
    };
    let s = op_seed(seed, u64::MAX >> 2);
    let r = match &env.manager {
        Some(mgr) => match mgr.admit(0) {
            Ok(session) => run_op(w, &v, s, suite(w, 0), false, Some(&session)),
            Err(e) => {
                ledger.attempted += 1;
                ledger.fail(format!("admission: {e:?}"));
                return (0.0, 0);
            }
        },
        None => run_op(w, &v, s, suite(w, 0), false, None),
    };
    ledger.observe(w, &v, &r);
    let Some(tap) = &r.wiretap else {
        return (0.0, 0);
    };
    let t = Instant::now();
    let verdict = workload::audit(w, s, tap);
    let audit_ms = ms(t.elapsed());
    if let Err(e) = verdict {
        ledger.fail(format!("wiretap audit: {e}"));
    }
    (audit_ms, tap.frame_count())
}

/// The untraced run: set up several times, run the timed window, audit one
/// captured operation, and report the end-to-end metrics.
pub fn untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut ledger = Ledger::default();
    // (stolen share, seconds) of each set-up.
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..w.setups {
        let ticks = sys::cpu_ticks();
        let t = Instant::now();
        let e = setup(w, seed);
        warm_up(w, &e, seed, &mut ledger);
        let secs = t.elapsed().as_secs_f64();
        setups.push((stolen_share(ticks_between(ticks, sys::cpu_ticks())), secs));
        env = Some(e);
    }
    let setup_secs: Vec<f64> = least_stolen(&setups, SETUP_SHARE)
        .into_iter()
        .map(|i| setups[i].1)
        .collect();
    let env = env.expect("at least one set-up");
    let win = window(w, &env, seed, seconds, false, &mut ledger);
    audit_op(w, &env, seed, &mut ledger);
    check_sessions(&env, &mut ledger);

    let c = clean(&win);
    let mut info = vec![
        format!(
            "untraced: {} ops in {:.3} s, op p50 {:.3} ms over all ops, setups (stolen share, \
             s) {:.4?}",
            win.ops,
            win.elapsed.as_secs_f64(),
            median(&win.untraced_ms),
            setups
        ),
        format!(
            "least-stolen {:.0}% of the window ({} stretches): {:.1}% of CPU stolen, against \
             {:.1}% over the whole window",
            c.share * 100.0,
            win.marks.len() - 1,
            c.steal * 100.0,
            c.steal_all * 100.0
        ),
    ];
    info.extend(ledger.summary());
    if win.untraced_ms.len() >= 100 {
        info.push(format!(
            "op_ms_p90 {:.4} ms over {} samples",
            quantile(&win.untraced_ms, 0.9).unwrap_or(0.0),
            win.untraced_ms.len()
        ));
    }
    Outcome {
        attempted: ledger.attempted,
        failures: ledger.failures,
        metrics: vec![
            Metric::new("setup_s", median(&setup_secs), "s"),
            Metric::new("op_ms_p50", c.op_ms_p50, "ms"),
            Metric::new("ops_per_s", c.ops_per_s, "1/s"),
            Metric::new("cpu_ms_per_op", c.cpu_ms_per_op, "ms"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ],
        info,
    }
}

/// The session workload must neither shed nor reject an admission.
fn check_sessions(env: &Env, ledger: &mut Ledger) {
    if let Some(mgr) = &env.manager {
        let st = mgr.stats();
        if st.shed > 0 || st.rejected > 0 {
            ledger.fail(format!(
                "session manager shed {} and rejected {}",
                st.shed, st.rejected
            ));
        }
    }
}

/// Single-thread per-call time of `aead`'s seal and open on `size`-byte
/// messages, µs: the median over batches run for about `budget`.
fn aead_call_us(aead: &dyn Aead, size: usize, budget: Duration) -> (f64, f64) {
    let nonce = Nonce::from_bytes([7; 12]);
    let mut buf = vec![0xA5u8; size];
    let batch = (256 * 1024 / size.max(1)).clamp(4, 4096);
    let mut seal = Vec::new();
    let mut pair = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || seal.len() < 5 {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(aead.seal_in_place_detached(&nonce, b"", &mut buf));
        }
        seal.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
        let t = Instant::now();
        for _ in 0..batch {
            let tag = aead.seal_in_place_detached(&nonce, b"", &mut buf);
            aead.open_in_place_detached(&nonce, b"", &mut buf, &tag)
                .expect("a fresh tag opens");
        }
        pair.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    let s = median(&seal);
    (s, (median(&pair) - s).max(0.0))
}

/// Single-thread memcpy bandwidth in GB/s over 64 MiB buffers (larger than
/// any last-level cache this runs on): the median of repeated copies.
fn memcpy_gb_per_s(budget: Duration) -> f64 {
    const LEN: usize = 64 << 20;
    let src = vec![0x3Cu8; LEN];
    let mut dst = vec![0u8; LEN];
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || rates.len() < 3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(LEN as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

/// Layer times of one traced operation, ms.
#[derive(Clone, Copy)]
struct Breakdown {
    spawn: f64,
    skew: f64,
    teardown: f64,
    coll_max: f64,
    coll_p50: f64,
    cpu_sum: f64,
    cpu_max: f64,
    wait_sum: f64,
    wait_max: f64,
    verify_max: f64,
    verify_sum: f64,
    verify_cpu_sum: f64,
    unattributed: f64,
}

fn breakdown(t: &Traced) -> Option<Breakdown> {
    let r = &t.r;
    let session = t
        .session
        .map_or(0.0, |(a, d)| ms(a.1 - a.0) + ms(d.1 - d.0));
    let first_entry = r.ranks.iter().map(|t| t.entry).min()?;
    let last_entry = r.ranks.iter().map(|t| t.entry).max()?;
    let last_exit = r.ranks.iter().map(|t| t.exit).max()?;
    let coll: Vec<f64> = r
        .ranks
        .iter()
        .map(|t| ms(t.coll_end - t.coll_start))
        .collect();
    let cpu: Vec<f64> = r.ranks.iter().map(|t| ms(t.coll_cpu)).collect();
    let wait: Vec<f64> = coll
        .iter()
        .zip(&cpu)
        .map(|(c, u)| (c - u).max(0.0))
        .collect();
    let verify: Vec<f64> = r
        .ranks
        .iter()
        .map(|t| ms(t.verify_end - t.coll_end))
        .collect();
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let b = Breakdown {
        spawn: ms(last_entry.saturating_duration_since(r.run_start)),
        skew: ms(last_entry - first_entry),
        teardown: ms(r.run_end.saturating_duration_since(last_exit)),
        coll_max: max(&coll),
        coll_p50: median(&coll),
        cpu_sum: cpu.iter().sum(),
        cpu_max: max(&cpu),
        wait_sum: wait.iter().sum(),
        wait_max: max(&wait),
        verify_max: max(&verify),
        verify_sum: verify.iter().sum(),
        verify_cpu_sum: r.ranks.iter().map(|t| ms(t.verify_cpu)).sum(),
        unattributed: 0.0,
    };
    Some(Breakdown {
        unattributed: t.wall - session - b.spawn - b.coll_max - b.verify_max - b.teardown,
        ..b
    })
}

/// The twins the derived layer metrics compare against.
struct Twins {
    /// Same operation, phantom lengths.
    phantom: Variant,
    /// The encrypted operation run standalone, without crashes.
    clean: Variant,
    /// The unencrypted twin at the same shape.
    plain: Variant,
    /// Phantom, no crashes, NIC contention on and off.
    nic_on: Variant,
    nic_off: Variant,
}

impl Twins {
    fn of(w: &Workload) -> Twins {
        let main = Variant::main(w);
        let clean = Variant {
            label: "clean",
            crashes: false,
            ..main
        };
        let nic = |label, on| Variant {
            label,
            phantom: true,
            nic_contention: on,
            ..clean
        };
        Twins {
            phantom: Variant {
                label: "phantom",
                phantom: true,
                ..main
            },
            clean,
            plain: Variant {
                label: "plain",
                collective: w.plain,
                ..clean
            },
            nic_on: nic("nic-on", true),
            nic_off: nic("nic-off", false),
        }
    }
}

/// Whether `a` and `b` run the same operation.
fn same(a: &Variant, b: &Variant) -> bool {
    a.collective == b.collective
        && a.phantom == b.phantom
        && a.nic_contention == b.nic_contention
        && a.crashes == b.crashes
}

/// Median wall times of each distinct twin, run interleaved for `reps`
/// rounds. A twin identical to the workload's own standalone operation
/// reuses `main_ms` instead of running again.
fn run_twins(
    w: &Workload,
    twins: &[Variant],
    main_ms: &[f64],
    seed: u64,
    reps: usize,
    ledger: &mut Ledger,
    spans: &mut Spans,
) -> Vec<f64> {
    let main = Variant::main(w);
    let standalone = w.load != Load::Sessions;
    let mut distinct: Vec<usize> = Vec::new(); // index of the first twin of each operation
    let owner: Vec<Option<usize>> = twins
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if standalone && same(v, &main) {
                return None;
            }
            match distinct.iter().find(|&&j| same(&twins[j], v)) {
                Some(&j) => Some(j),
                None => {
                    distinct.push(i);
                    Some(i)
                }
            }
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); twins.len()];
    for rep in 0..reps {
        for &j in &distinct {
            let v = &twins[j];
            let i = 1_000_000 + rep as u64 * 16 + j as u64;
            let r = run_op(w, v, op_seed(seed, i), suite(w, rep as u64), false, None);
            ledger.observe(w, v, &r);
            spans.add("twin", 0, i, None, r.run_start, r.run_end);
            samples[j].push(ms(r.wall));
        }
    }
    owner
        .iter()
        .map(|o| match o {
            None => median(main_ms),
            Some(j) => median(&samples[*j]),
        })
        .collect()
}

/// The traced run: calibrate the AEAD and memcpy, run a window whose
/// operations alternate traced and untraced, run the twins and the audit,
/// and report the per-layer metrics. Spans go to `spans_path`.
pub fn traced(w: &Workload, seed: u64, seconds: f64, spans_path: &std::path::Path) -> Outcome {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut ledger = Ledger::default();

    let t = Instant::now();
    let env = setup(w, seed);
    let warm = warm_up(w, &env, seed, &mut ledger);
    spans.add("setup", 0, 0, None, t, Instant::now());

    // Calibration: per-call AEAD time at the workload's block size for
    // each suite it uses, and memcpy bandwidth.
    let t = Instant::now();
    let calls: Vec<(f64, f64)> = env
        .aeads
        .iter()
        .map(|a| aead_call_us(&**a, w.m, Duration::from_millis(150)))
        .collect();
    spans.add("calibrate.aead", 0, 0, None, t, Instant::now());
    let t = Instant::now();
    let bw = memcpy_gb_per_s(Duration::from_millis(200));
    spans.add("calibrate.memcpy", 0, 0, None, t, Instant::now());
    let seal_us = calls.iter().map(|c| c.0).sum::<f64>() / calls.len() as f64;
    let open_us = calls.iter().map(|c| c.1).sum::<f64>() / calls.len() as f64;

    let win = window(w, &env, seed, seconds, true, &mut ledger);
    for (i, t) in win.traced.iter().enumerate() {
        let op = i as u64;
        match t.session {
            None => {
                spans.add_op("run", 0, op, &t.r);
            }
            Some((admit, retire)) => {
                let root = spans.add("session.op", 0, op, None, admit.0, retire.1);
                spans.add("session.admit", root, op, None, admit.0, admit.1);
                spans.add_op("session.run", root, op, &t.r);
                spans.add("session.retire", root, op, None, retire.0, retire.1);
            }
        }
    }

    let tw = Twins::of(w);
    let list = [tw.phantom, tw.clean, tw.plain, tw.nic_on, tw.nic_off];
    let est = ms(warm).max(1.0) / if w.load == Load::Sessions { 2.0 } else { 1.0 };
    let reps = ((seconds * 1e3 * 0.5) / (est * 4.0)).clamp(1.0, 15.0) as usize;
    let twin_ms = run_twins(
        w,
        &list,
        &win.untraced_ms,
        seed,
        reps,
        &mut ledger,
        &mut spans,
    );
    let [phantom_ms, clean_ms, plain_ms, nic_on_ms, nic_off_ms] =
        <[f64; 5]>::try_from(twin_ms).expect("five twins");

    let t = Instant::now();
    let (audit_ms, frames) = audit_op(w, &env, seed, &mut ledger);
    spans.add("audit", 0, 0, None, t, Instant::now());
    check_sessions(&env, &mut ledger);

    let b: Vec<Breakdown> = win.traced.iter().filter_map(breakdown).collect();
    let med = |f: fn(&Breakdown) -> f64| median(&b.iter().map(f).collect::<Vec<_>>());
    let traced_ms: Vec<f64> = win.traced.iter().map(|t| t.wall).collect();
    let traced_p50 = median(&traced_ms);
    let untraced_p50 = median(&win.untraced_ms);
    let main = ledger.counts("op");
    let ops = win.ops.max(1) as f64;
    let (survivors, epochs) = win
        .traced
        .first()
        .map_or((0, 0), |t| (t.r.survivors, t.r.epochs));
    // Byte handling compares a real operation with its phantom twin; the
    // session workload's own operation also pays admission, so it uses
    // its standalone clean twin.
    let (byte_ms, recovery_ms) = match w.load {
        _ if !w.real => (0.0, 0.0),
        Load::Single => (untraced_p50 - phantom_ms, 0.0),
        Load::Sessions => (clean_ms - phantom_ms, 0.0),
        Load::Recover => (untraced_p50 - phantom_ms, untraced_p50 - clean_ms),
    };
    let aead_ms = if w.real {
        (main.seal_ops as f64 * seal_us + main.open_ops as f64 * open_us) / 1e3
    } else {
        0.0
    };
    let unattributed = med(|b| b.unattributed);
    let session_ms = |f: fn(&Traced) -> f64| {
        let v: Vec<f64> = win
            .traced
            .iter()
            .filter(|t| t.session.is_some())
            .map(f)
            .collect();
        median(&v)
    };
    let admit_ms = session_ms(|t| t.session.map_or(0.0, |(a, _)| ms(a.1 - a.0)));
    let run_ms = session_ms(|t| ms(t.r.run_end - t.r.run_start));
    let retire_ms = session_ms(|t| t.session.map_or(0.0, |(_, d)| ms(d.1 - d.0)));
    let memcpy_bytes = median(&ledger.rope.iter().map(|r| r.0 as f64).collect::<Vec<_>>());
    let buf_allocs = median(&ledger.rope.iter().map(|r| r.1 as f64).collect::<Vec<_>>());
    let st = env.manager.as_ref().map(|m| m.stats()).unwrap_or_default();

    let mut info = vec![
        format!(
            "traced: {} ops ({} traced) in {:.3} s, twins x{reps}, aead seal {seal_us:.3} us open {open_us:.3} us per {} B call, memcpy {bw:.2} GB/s",
            win.ops,
            win.traced.len(),
            win.elapsed.as_secs_f64(),
            w.m
        ),
        format!(
            "conservation: harness.unattributed_ms {unattributed:.3} ms is {:.1}% of traced op_ms_p50 {traced_p50:.3} ms",
            100.0 * unattributed / traced_p50.max(f64::MIN_POSITIVE)
        ),
    ];

    let c = |name, value: u64| Metric::new(name, value as f64, "count");
    let t = |name, value| Metric::new(name, value, "ms");
    let pct = |name, value| Metric::new(name, value, "%");
    let metrics = vec![
        c("crypto.seal_ops", main.seal_ops),
        c("crypto.seal_bytes", main.seal_bytes),
        c("crypto.open_ops", main.open_ops),
        c("crypto.open_bytes", main.open_bytes),
        Metric::new("crypto.seal_call_us", seal_us, "us"),
        Metric::new("crypto.open_call_us", open_us, "us"),
        t("crypto.aead_ms_est", aead_ms),
        pct(
            "crypto.overhead_pct",
            100.0 * (clean_ms - plain_ms) / plain_ms,
        ),
        Metric::new("rope.memcpy_bytes", memcpy_bytes, "count"),
        Metric::new("rope.buf_allocs", buf_allocs, "count"),
        Metric::new("rope.memcpy_gb_per_s", bw, "GB/s"),
        t("rope.copy_ms_est", memcpy_bytes / (bw * 1e6)),
        c("world.msgs", main.msgs),
        c("world.wire_bytes", main.wire_bytes),
        c("world.inter_node_bytes", main.inter_node_bytes),
        c("world.retransmits", main.retransmits),
        c("world.crashes_detected", main.crashes_detected),
        t("world.spawn_ms", med(|b| b.spawn)),
        t("world.start_skew_ms", med(|b| b.skew)),
        t("world.teardown_ms", med(|b| b.teardown)),
        t("world.phantom_twin_ms", phantom_ms),
        t("world.byte_handling_ms", byte_ms),
        t("sched.rank_cpu_ms_sum", med(|b| b.cpu_sum)),
        t("sched.rank_cpu_ms_max", med(|b| b.cpu_max)),
        t("sched.rank_wait_ms_sum", med(|b| b.wait_sum)),
        t("sched.rank_wait_ms_max", med(|b| b.wait_max)),
        Metric::new(
            "sched.vol_switches_per_op",
            win.usage.vol_switches as f64 / ops,
            "count",
        ),
        Metric::new(
            "sched.invol_switches_per_op",
            win.usage.invol_switches as f64 / ops,
            "count",
        ),
        t("sched.sys_cpu_ms_per_op", ms(win.usage.sys) / ops),
        t("session.admit_ms", admit_ms),
        t("session.run_ms", run_ms),
        t("session.retire_ms", retire_ms),
        c("session.queue_depth_max", win.queue_depth_max as u64),
        c("session.shed", st.shed),
        c("session.rejected", st.rejected),
        t("netsim.nic_ledger_ms", nic_on_ms - nic_off_ms),
        c("netsim.wiretap_frames", frames as u64),
        t("netsim.audit_ms", audit_ms),
        t("core.collective_ms_max", med(|b| b.coll_max)),
        t("core.collective_ms_p50", med(|b| b.coll_p50)),
        c("core.recovery_epochs", epochs),
        c("core.survivors", survivors as u64),
        t("core.recovery_overhead_ms", recovery_ms),
        t("harness.verify_ms_max", med(|b| b.verify_max)),
        t("harness.verify_ms_sum", med(|b| b.verify_sum)),
        t("harness.verify_cpu_ms_sum", med(|b| b.verify_cpu_sum)),
        t("harness.unattributed_ms", unattributed),
        pct(
            "harness.unattributed_pct",
            100.0 * unattributed / traced_p50.max(f64::MIN_POSITIVE),
        ),
        pct(
            "harness.trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(f64::MIN_POSITIVE),
        ),
        c("harness.traced_ops", win.traced.len() as u64),
    ];

    info.extend(ledger.summary());
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":\"wall-clock, us since run start\"}}",
        w.name
    );
    if let Err(e) = spans.write(spans_path, &header) {
        ledger.fail(format!("writing {}: {e}", spans_path.display()));
    }
    Outcome {
        attempted: ledger.attempted,
        failures: ledger.failures,
        metrics,
        info,
    }
}
