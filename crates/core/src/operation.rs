//! The operation-generic collective surface: one [`Collective`] value names
//! an *operation × algorithm-variant* pair and knows how to run it over the
//! full world or an arbitrary survivor group, predict its Table-I metric
//! set, recover it through the multi-crash engine, and verify its output.
//!
//! The original crate surface was all-gather-only; every layer above
//! (runtime trace phases, bench schema, recovery engine) keyed on
//! [`Algorithm`] alone. `Collective` is the join point that lets
//! broadcast, (irregular) gather/scatter, and all-to-all ride the same
//! machinery: the shared item movers in [`crate::collective`], the
//! [`GatherOutput`] container (expected-slot semantics differ per
//! operation), and [`crate::collective::recover_collective`].
//!
//! ## Rooted operations under recovery
//!
//! Broadcast, gather, and scatter are rooted at global rank 0. If the root
//! itself is in the agreed failed set, the operation's data is lost — every
//! survivor deterministically returns an *empty-expectation* output
//! (trivially complete, canonically identical) rather than inventing
//! blocks. If the root survives, the re-run executes over the shrunk
//! member list with the root still at member position 0 (member lists are
//! sorted ascending).

use crate::algorithm::{allgather, Algorithm};
use crate::allgatherv::{allgatherv, allgatherv_group, recover_allgatherv};
use crate::bounds::MetricSet;
use crate::collective::{ceil_log2, recover_allgather, recover_collective};
use crate::encrypted::{
    alltoall_bruck, alltoall_pairwise, bcast_binomial, bcast_pipelined, bcast_segments,
    exchange_lengths, gather_binomial, gather_linear, scatter_binomial, scatter_linear,
};
use crate::group::allgather_group;
use crate::output::{DegradedOutput, GatherOutput};
use crate::tags;
use eag_netsim::Rank;
use eag_runtime::ProcCtx;

/// A collective operation, in the MPI sense: what the data movement
/// *means*, independent of the algorithm that realizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Every rank contributes one block; every rank ends with all blocks.
    Allgather,
    /// All-gather with variable per-rank block lengths.
    Allgatherv,
    /// The root's block reaches every rank.
    Broadcast,
    /// Every rank's block reaches the root.
    Gather,
    /// Gather with variable per-rank block lengths (Träff's irregular
    /// case; lengths travel through a sealed exchange prologue).
    Gatherv,
    /// The root holds one distinct block per rank; each rank gets its own.
    Scatter,
    /// Scatter with variable per-rank block lengths.
    Scatterv,
    /// Complete personalized exchange: every rank holds one distinct
    /// block per *destination*.
    Alltoall,
}

impl Operation {
    /// Every operation, in id order.
    pub fn all() -> &'static [Operation] {
        use Operation::*;
        &[
            Allgather, Allgatherv, Broadcast, Gather, Scatter, Alltoall, Gatherv, Scatterv,
        ]
    }

    /// Stable numeric label for [`eag_runtime::Metrics::operation`].
    pub fn id(&self) -> u64 {
        use Operation::*;
        match self {
            Allgather => 1,
            Allgatherv => 2,
            Broadcast => 3,
            Gather => 4,
            Scatter => 5,
            Alltoall => 6,
            Gatherv => 7,
            Scatterv => 8,
        }
    }

    /// Short name, as used in bench schemas and `eag run --op`.
    pub fn name(&self) -> &'static str {
        use Operation::*;
        match self {
            Allgather => "allgather",
            Allgatherv => "allgatherv",
            Broadcast => "bcast",
            Gather => "gather",
            Gatherv => "gatherv",
            Scatter => "scatter",
            Scatterv => "scatterv",
            Alltoall => "alltoall",
        }
    }

    /// Looks an operation up by [`Operation::name`] (case-insensitive).
    pub fn by_name(name: &str) -> Option<Operation> {
        let lower = name.to_ascii_lowercase();
        Operation::all().iter().copied().find(|o| o.name() == lower)
    }

    /// True for operations whose output is replicated at every rank
    /// (identical across survivors after recovery); false for rooted or
    /// personalized operations, whose per-rank outputs legitimately
    /// differ.
    pub fn is_replicated(&self) -> bool {
        use Operation::*;
        matches!(self, Allgather | Allgatherv | Broadcast)
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Broadcast algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastAlgo {
    /// Chain pipeline: the block is cut into [`bcast_segments`] segments
    /// that stream down the member chain, decryption overlapped with
    /// forwarding.
    Pipelined,
    /// MPICH-style binomial tree; the root seals once and sealed subtree
    /// copies are forwarded as-is.
    Binomial,
}

impl BcastAlgo {
    /// Every variant.
    pub fn all() -> &'static [BcastAlgo] {
        &[BcastAlgo::Pipelined, BcastAlgo::Binomial]
    }

    /// Variant name.
    pub fn name(&self) -> &'static str {
        match self {
            BcastAlgo::Pipelined => "pipelined",
            BcastAlgo::Binomial => "binomial",
        }
    }
}

/// Gather/scatter algorithm variants (shared by the uniform and the
/// irregular operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootedAlgo {
    /// Direct: every non-root exchanges with the root, one edge per block.
    Linear,
    /// Binomial tree: `⌈lg q⌉` rounds, sealed blocks transiting
    /// intermediaries as-is.
    Binomial,
}

impl RootedAlgo {
    /// Every variant.
    pub fn all() -> &'static [RootedAlgo] {
        &[RootedAlgo::Linear, RootedAlgo::Binomial]
    }

    /// Variant name.
    pub fn name(&self) -> &'static str {
        match self {
            RootedAlgo::Linear => "linear",
            RootedAlgo::Binomial => "binomial",
        }
    }
}

/// All-to-all algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlgo {
    /// `q−1` pairwise sendrecv rounds; each block travels one edge.
    Pairwise,
    /// Bruck-style `⌈lg q⌉`-round store-and-forward with ciphertext
    /// forwarded as-is through intermediaries.
    Bruck,
}

impl AlltoallAlgo {
    /// Every variant.
    pub fn all() -> &'static [AlltoallAlgo] {
        &[AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck]
    }

    /// Variant name.
    pub fn name(&self) -> &'static str {
        match self {
            AlltoallAlgo::Pairwise => "pairwise",
            AlltoallAlgo::Bruck => "bruck",
        }
    }
}

/// The canonical per-rank length vector used whenever a `v`-operation is
/// driven by a single nominal size `m` (bench cells, `eag run`): lengths
/// cycle through `m/4, m/2, 3m/4, m` by rank, never below one byte. Every
/// layer derives the same vector from `(p, m)`, so no lengths need to be
/// carried in schemas or schedules.
pub fn varying_lens(p: usize, m: usize) -> Vec<usize> {
    (0..p).map(|r| ((m * (r % 4 + 1)) / 4).max(1)).collect()
}

/// An operation together with the algorithm variant that realizes it —
/// the unit the runtime traces, the bench schedules, and the recovery
/// engine restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// All-gather via one of the 19 registered [`Algorithm`]s.
    Allgather(Algorithm),
    /// Variable-length all-gather via a varying-capable [`Algorithm`].
    Allgatherv(Algorithm),
    /// Encrypted broadcast.
    Broadcast(BcastAlgo),
    /// Encrypted gather to rank 0.
    Gather(RootedAlgo),
    /// Encrypted irregular gather to rank 0.
    Gatherv(RootedAlgo),
    /// Encrypted scatter from rank 0.
    Scatter(RootedAlgo),
    /// Encrypted irregular scatter from rank 0.
    Scatterv(RootedAlgo),
    /// Encrypted all-to-all.
    Alltoall(AlltoallAlgo),
}

impl Collective {
    /// The operation this collective realizes.
    pub fn operation(&self) -> Operation {
        match self {
            Collective::Allgather(_) => Operation::Allgather,
            Collective::Allgatherv(_) => Operation::Allgatherv,
            Collective::Broadcast(_) => Operation::Broadcast,
            Collective::Gather(_) => Operation::Gather,
            Collective::Gatherv(_) => Operation::Gatherv,
            Collective::Scatter(_) => Operation::Scatter,
            Collective::Scatterv(_) => Operation::Scatterv,
            Collective::Alltoall(_) => Operation::Alltoall,
        }
    }

    /// The algorithm-variant name (the part after the `/` in
    /// [`Collective::name`]).
    pub fn variant_name(&self) -> &'static str {
        match self {
            Collective::Allgather(a) | Collective::Allgatherv(a) => a.name(),
            Collective::Broadcast(b) => b.name(),
            Collective::Gather(r)
            | Collective::Gatherv(r)
            | Collective::Scatter(r)
            | Collective::Scatterv(r) => r.name(),
            Collective::Alltoall(a) => a.name(),
        }
    }

    /// Full display name, `operation/variant` — e.g. `bcast/binomial`,
    /// `allgather/O-Ring`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.operation().name(), self.variant_name())
    }

    /// Builds a collective from an operation name and a variant name
    /// (both case-insensitive). For the all-gather operations the variant
    /// is an [`Algorithm`] paper name.
    pub fn by_names(op: &str, variant: &str) -> Option<Collective> {
        let lower = variant.to_ascii_lowercase();
        Some(match Operation::by_name(op)? {
            Operation::Allgather => Collective::Allgather(Algorithm::by_name(variant)?),
            Operation::Allgatherv => {
                let a = Algorithm::by_name(variant)?;
                if !a.supports_varying() {
                    return None;
                }
                Collective::Allgatherv(a)
            }
            Operation::Broadcast => Collective::Broadcast(
                BcastAlgo::all()
                    .iter()
                    .copied()
                    .find(|b| b.name() == lower)?,
            ),
            Operation::Gather | Operation::Gatherv | Operation::Scatter | Operation::Scatterv => {
                let r = RootedAlgo::all()
                    .iter()
                    .copied()
                    .find(|r| r.name() == lower)?;
                match Operation::by_name(op)? {
                    Operation::Gather => Collective::Gather(r),
                    Operation::Gatherv => Collective::Gatherv(r),
                    Operation::Scatter => Collective::Scatter(r),
                    _ => Collective::Scatterv(r),
                }
            }
            Operation::Alltoall => Collective::Alltoall(
                AlltoallAlgo::all()
                    .iter()
                    .copied()
                    .find(|a| a.name() == lower)?,
            ),
        })
    }

    /// Every encrypted collective of the *new* operations (everything but
    /// the all-gathers), one entry per operation × variant.
    pub fn new_operations_all() -> Vec<Collective> {
        let mut v = Vec::new();
        for &b in BcastAlgo::all() {
            v.push(Collective::Broadcast(b));
        }
        for &r in RootedAlgo::all() {
            v.push(Collective::Gather(r));
            v.push(Collective::Scatter(r));
            v.push(Collective::Gatherv(r));
            v.push(Collective::Scatterv(r));
        }
        for &a in AlltoallAlgo::all() {
            v.push(Collective::Alltoall(a));
        }
        v
    }

    fn kernel_name(&self) -> &'static str {
        match self {
            Collective::Broadcast(BcastAlgo::Pipelined) => "bcast/pipelined",
            Collective::Broadcast(BcastAlgo::Binomial) => "bcast/binomial",
            Collective::Gather(RootedAlgo::Linear) => "gather/linear",
            Collective::Gather(RootedAlgo::Binomial) => "gather/binomial",
            Collective::Gatherv(RootedAlgo::Linear) => "gatherv/linear",
            Collective::Gatherv(RootedAlgo::Binomial) => "gatherv/binomial",
            Collective::Scatter(RootedAlgo::Linear) => "scatter/linear",
            Collective::Scatter(RootedAlgo::Binomial) => "scatter/binomial",
            Collective::Scatterv(RootedAlgo::Linear) => "scatterv/linear",
            Collective::Scatterv(RootedAlgo::Binomial) => "scatterv/binomial",
            Collective::Alltoall(AlltoallAlgo::Pairwise) => "alltoall/pairwise",
            Collective::Alltoall(AlltoallAlgo::Bruck) => "alltoall/bruck",
            Collective::Allgather(_) | Collective::Allgatherv(_) => "allgather",
        }
    }

    /// Runs the collective over the full world with nominal block size
    /// `m` (`v`-operations derive per-rank lengths via [`varying_lens`]).
    pub fn run(&self, ctx: &mut ProcCtx, m: usize) -> GatherOutput {
        ctx.note_operation(self.operation().id());
        match self {
            Collective::Allgather(a) => allgather(ctx, *a, m),
            Collective::Allgatherv(a) => allgatherv(ctx, *a, &varying_lens(ctx.p(), m)),
            _ => {
                let members: Vec<Rank> = (0..ctx.p()).collect();
                self.run_group(ctx, &members, m)
            }
        }
    }

    /// Runs the collective among `members` only (ascending global ranks;
    /// every member calls with the identical list). This is the degraded
    /// re-run entry used by [`Collective::recover`]; rooted operations
    /// whose root (global rank 0) is not in `members` return an
    /// empty-expectation output — the data died with the root.
    pub fn run_group(&self, ctx: &mut ProcCtx, members: &[Rank], m: usize) -> GatherOutput {
        ctx.note_operation(self.operation().id());
        let p = ctx.p();
        let rooted = matches!(
            self.operation(),
            Operation::Broadcast
                | Operation::Gather
                | Operation::Gatherv
                | Operation::Scatter
                | Operation::Scatterv
        );
        if rooted && members.first() != Some(&0) {
            return GatherOutput::new_sparse(p, &[], m);
        }
        if matches!(self, Collective::Allgather(_) | Collective::Allgatherv(_)) {
            let group_algo = |a: &Algorithm| {
                if a.supports_groups() {
                    *a
                } else {
                    a.recovery_algorithm()
                }
            };
            return match self {
                Collective::Allgather(a) => allgather_group(ctx, group_algo(a), members, m),
                Collective::Allgatherv(a) => {
                    let a = if a.supports_groups() && a.supports_varying() {
                        *a
                    } else {
                        Algorithm::ORing
                    };
                    allgatherv_group(ctx, a, &varying_lens(p, m), members)
                }
                _ => unreachable!(),
            };
        }

        ctx.begin_collective();
        ctx.set_phase(self.kernel_name());
        let uniform = vec![m; p];
        match self {
            Collective::Broadcast(BcastAlgo::Pipelined) => {
                bcast_pipelined(ctx, members, m, tags::PHASE_BCAST)
            }
            Collective::Broadcast(BcastAlgo::Binomial) => {
                bcast_binomial(ctx, members, m, tags::PHASE_BCAST)
            }
            Collective::Gather(RootedAlgo::Linear) => {
                gather_linear(ctx, members, &uniform, tags::PHASE_GATHER)
            }
            Collective::Gather(RootedAlgo::Binomial) => {
                gather_binomial(ctx, members, &uniform, tags::PHASE_GATHER)
            }
            Collective::Scatter(RootedAlgo::Linear) => {
                scatter_linear(ctx, members, &uniform, tags::PHASE_SCATTER)
            }
            Collective::Scatter(RootedAlgo::Binomial) => {
                scatter_binomial(ctx, members, &uniform, tags::PHASE_SCATTER)
            }
            Collective::Gatherv(r) | Collective::Scatterv(r) => {
                // The irregular case: lengths are *not* global knowledge —
                // members learn them through the sealed exchange prologue
                // (re-run over the survivor group after a shrink).
                let nominal = varying_lens(p, m);
                let lens =
                    exchange_lengths(ctx, members, nominal[ctx.rank()], tags::PHASE_LEN_XCHG);
                match (self, r) {
                    (Collective::Gatherv(_), RootedAlgo::Linear) => {
                        gather_linear(ctx, members, &lens, tags::PHASE_GATHER)
                    }
                    (Collective::Gatherv(_), RootedAlgo::Binomial) => {
                        gather_binomial(ctx, members, &lens, tags::PHASE_GATHER)
                    }
                    (_, RootedAlgo::Linear) => {
                        scatter_linear(ctx, members, &lens, tags::PHASE_SCATTER)
                    }
                    (_, RootedAlgo::Binomial) => {
                        scatter_binomial(ctx, members, &lens, tags::PHASE_SCATTER)
                    }
                }
            }
            Collective::Alltoall(AlltoallAlgo::Pairwise) => {
                alltoall_pairwise(ctx, members, m, tags::PHASE_A2A)
            }
            Collective::Alltoall(AlltoallAlgo::Bruck) => {
                alltoall_bruck(ctx, members, m, tags::PHASE_A2A)
            }
            Collective::Allgather(_) | Collective::Allgatherv(_) => unreachable!(),
        }
    }

    /// Runs the collective under the multi-crash recovery engine:
    /// attempt, agree on failures, re-run over the survivor group.
    pub fn recover(&self, ctx: &mut ProcCtx, m: usize) -> DegradedOutput {
        match self {
            Collective::Allgather(a) => recover_allgather(ctx, *a, m),
            Collective::Allgatherv(a) => recover_allgatherv(ctx, *a, &varying_lens(ctx.p(), m)),
            _ => {
                let this = *self;
                recover_collective(
                    ctx,
                    |ctx| this.run(ctx, m),
                    |ctx, members| this.run_group(ctx, members, m),
                )
            }
        }
    }

    /// Verifies `out` against the deterministic payload pattern for
    /// `seed`, from the point of view of rank `me`. All-to-all outputs
    /// hold pair-keyed blocks; everything else holds origin-keyed blocks.
    pub fn verify(&self, me: Rank, out: &GatherOutput, seed: u64) {
        match self {
            Collective::Alltoall(_) => out.verify_pairwise(seed, me),
            _ => out.verify(seed),
        }
    }

    /// The closed-form Table-I-style metric prediction for this
    /// collective under block mapping (p, N powers of two, N ≥ 2, uniform
    /// blocks). `None` where no closed form is registered — the
    /// `v`-operations (the length prologue pollutes the per-rank maxima)
    /// and the Bruck all-to-all (shape-dependent forwarding maxima, like
    /// the opportunistic Bruck all-gather).
    pub fn predict(&self, p: usize, nodes: usize, m: usize) -> Option<MetricSet> {
        if let Collective::Allgather(a) = self {
            return crate::bounds::predict(*a, p, nodes, m);
        }
        if !p.is_power_of_two() || !nodes.is_power_of_two() || nodes < 2 || !p.is_multiple_of(nodes)
        {
            return None;
        }
        let ell = (p / nodes) as u64;
        let (p64, m64) = (p as u64, m as u64);
        let lg = ceil_log2(p) as u64;
        let remote = (p64 - ell) * m64;
        Some(match self {
            Collective::Broadcast(BcastAlgo::Binomial) => MetricSet {
                rc: 1,
                sc: lg * m64,
                re: 1,
                se: m64,
                rd: 1,
                sd: m64,
            },
            Collective::Broadcast(BcastAlgo::Pipelined) => {
                let s = bcast_segments(m) as u64;
                MetricSet {
                    rc: s,
                    sc: m64,
                    re: s,
                    se: m64,
                    rd: s,
                    sd: m64,
                }
            }
            Collective::Gather(RootedAlgo::Linear) => MetricSet {
                rc: p64 - 1,
                sc: (p64 - 1) * m64,
                re: 1,
                se: m64,
                rd: p64 - ell,
                sd: remote,
            },
            Collective::Gather(RootedAlgo::Binomial) => MetricSet {
                rc: lg,
                sc: (p64 - 1) * m64,
                re: ell,
                se: ell * m64,
                rd: p64 - ell,
                sd: remote,
            },
            Collective::Scatter(_) => MetricSet {
                rc: 1,
                sc: (p64 - 1) * m64,
                re: p64 - ell,
                se: remote,
                rd: 1,
                sd: m64,
            },
            Collective::Alltoall(AlltoallAlgo::Pairwise) => MetricSet {
                rc: p64 - 1,
                sc: (p64 - 1) * m64,
                re: p64 - ell,
                se: remote,
                rd: p64 - ell,
                sd: remote,
            },
            _ => return None,
        })
    }
}

impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::lower_bounds_op;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, Metrics, WorldSpec};

    const SEED: u64 = 0x0905;

    fn world(p: usize, nodes: usize) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::free(),
            DataMode::Real { seed: SEED },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn names_roundtrip() {
        for op in Operation::all() {
            assert_eq!(Operation::by_name(op.name()), Some(*op));
        }
        let mut all = vec![
            Collective::Allgather(Algorithm::ORing),
            Collective::Allgatherv(Algorithm::OBruck),
        ];
        all.extend(Collective::new_operations_all());
        for c in all {
            let joined = c.name();
            let (op, variant) = joined.split_once('/').unwrap();
            assert_eq!(Collective::by_names(op, variant), Some(c), "{joined}");
        }
        assert_eq!(Collective::by_names("bcast", "nope"), None);
        assert_eq!(Collective::by_names("allgatherv", "HS1"), None); // not varying-capable
        assert_eq!(Collective::by_names("nope", "binomial"), None);
    }

    #[test]
    fn operation_ids_are_distinct() {
        let mut ids: Vec<u64> = Operation::all().iter().map(Operation::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Operation::all().len());
    }

    #[test]
    fn every_new_collective_runs_and_labels_metrics() {
        let (p, m) = (8usize, 24usize);
        for c in Collective::new_operations_all() {
            let report = run(&world(p, 2), move |ctx| {
                let out = c.run(ctx, m);
                c.verify(ctx.rank(), &out, SEED);
            });
            assert!(
                !report.wiretap.saw_plaintext_frame(),
                "{c} leaked plaintext"
            );
            let max = Metrics::component_max(&report.metrics);
            assert_eq!(max.operation, c.operation().id(), "{c} mislabeled");
        }
    }

    #[test]
    fn predictions_match_measured_and_dominate_lower_bounds() {
        // The Table-I-style check for the new operations: wherever a
        // closed form exists, it must equal the measured component maxima
        // and weakly dominate the per-operation lower bounds.
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        for c in Collective::new_operations_all() {
            let Some(pred) = c.predict(p, nodes, m) else {
                continue;
            };
            let report = run(&world(p, nodes), move |ctx| {
                let out = c.run(ctx, m);
                c.verify(ctx.rank(), &out, SEED);
            });
            let max = Metrics::component_max(&report.metrics);
            assert_eq!(max.comm_rounds, pred.rc, "{c} rc");
            assert_eq!(max.payload_sent.max(max.payload_recv), pred.sc, "{c} sc");
            assert_eq!(max.enc_rounds, pred.re, "{c} re");
            assert_eq!(max.enc_bytes, pred.se, "{c} se");
            assert_eq!(max.dec_rounds, pred.rd, "{c} rd");
            assert_eq!(max.dec_bytes, pred.sd, "{c} sd");

            let lb = lower_bounds_op(c.operation(), p, nodes, m).unwrap();
            assert!(pred.rc >= lb.rc, "{c} rc < bound");
            assert!(pred.sc >= lb.sc, "{c} sc < bound");
            assert!(pred.re >= lb.re, "{c} re < bound");
            assert!(pred.se >= lb.se, "{c} se < bound");
            assert!(pred.rd >= lb.rd, "{c} rd < bound");
            assert!(pred.sd >= lb.sd, "{c} sd < bound");
        }
    }

    #[test]
    fn varying_lens_is_deterministic_and_positive() {
        let lens = varying_lens(8, 64);
        assert_eq!(lens, vec![16, 32, 48, 64, 16, 32, 48, 64]);
        assert!(varying_lens(5, 1).iter().all(|&l| l >= 1));
    }

    #[test]
    fn allgather_predict_delegates() {
        let via_collective = Collective::Allgather(Algorithm::ORing).predict(16, 4, 64);
        let direct = crate::bounds::predict(Algorithm::ORing, 16, 4, 64);
        assert_eq!(via_collective, direct);
        assert!(via_collective.is_some());
    }
}
