//! Cross-request batched tree verification (§5's iteration-level
//! scheduling): all sessions of a continuous-batching iteration are
//! verified by the LLM in **one** stacked tree-parallel forward — or, in
//! the default *hierarchical* mode, in at most two.
//!
//! Each iteration splits into three phases. Speculation
//! ([`crate::Session::propose`]) is *logically* per-session — the SSM
//! pool, RNG streams and degradation ladder are untouched — but runs as
//! one data-parallel pass across the batch: sessions are sharded over
//! the tensor crate's effective thread count and speculate concurrently,
//! which is bitwise-safe because each session owns its caches and RNG
//! stream and every kernel is bitwise-identical at any thread count.
//! The LLM forwards then fuse: the linearized trees (or single
//! incremental rows) of every participating session stack into one
//! `[Σnᵢ, d]` batch with a block-diagonal visibility mask and
//! per-request KV-cache handles, so the model crate's blocked kernels
//! see one tall matrix instead of N tiny ones. Finally
//! verification/commit runs per-session again, in item order.
//!
//! # Hierarchical verification
//!
//! A wide tree pays for every node it forwards, but most of a tree dies
//! at depth 1: if the LLM rejects the root's continuation, every deeper
//! node was wasted work. The hierarchical mode therefore splits the
//! fused forward in two (after "Hierarchical Verification of Speculative
//! Beams"; see ARCHITECTURE.md §14):
//!
//! 1. **Pass A** forwards only each tree's *depth-1 frontier* (root +
//!    depth-1 children) for the whole batch, then runs each session's
//!    verification walk as far as those rows allow. A walk that dies at
//!    the frontier is complete — its deep subtrees are **pruned** without
//!    ever being forwarded.
//! 2. **Pass B** forwards, for each still-paused walk, exactly the one
//!    surviving subtree (a contiguous DFS range), again block-diagonally
//!    across the batch, and resumes the walk to completion.
//!
//! Bitwise equality with the single-pass verifier holds under both
//! greedy and MSS: the verification walks are resumable at node
//! boundaries with no mid-node RNG state ([`crate::VerifyWalk`]), and
//! every forwarded row sees exactly the visible-ancestor set it would
//! see in single-pass layout, in the same relative order — masked
//! columns contribute an exact `0.0` to the attention reduction, so
//! dropping them from the layout leaves every output bit unchanged.
//! Between the passes the session's KV tail is compacted to
//! `[root, survivor]`, which is a prefix of what commit would retain
//! anyway.
//!
//! The caller decides *which* sessions participate each iteration — the
//! batch is **ragged**: `step_batch` takes whatever set is currently
//! live, so requests join and retire mid-flight and the block-diagonal
//! mask is re-packed from scratch every call. Nothing here assumes two
//! consecutive iterations saw the same items (see ARCHITECTURE.md §12
//! for the join/retire lifecycle driven by the serving daemon).
//!
//! Faulted requests (SSM stall, simulated KV OOM) drop out of the fused
//! pass and take the serial incremental path — a fault degrades one
//! request without poisoning its batch-mates. Because every row of the
//! stacked forward is computed with bitwise-identical reduction order to
//! a solo forward (see `specinfer-model`), batched stepping emits
//! exactly the tokens serial stepping does, seed for seed.

use specinfer_model::{BatchRequest, DecodeMode, Transformer, Visibility};
use specinfer_tensor::Tensor;
use specinfer_tokentree::{TokenId, TopologyMask};

use crate::engine::{EngineConfig, Proposal, Session, StepFault, StepStats};
use crate::verifier::{
    advance_greedy, advance_naive, advance_stochastic, LogitRows, StochasticVerifier, VerifyWalk,
};

/// One session's slot in a batched iteration.
#[derive(Debug)]
pub struct BatchItem<'a> {
    /// The session to advance.
    pub session: &'a mut Session,
    /// Its engine configuration (per-request, Orca-style).
    pub config: &'a EngineConfig,
    /// The fault injected into this session's iteration.
    pub fault: StepFault,
}

impl<'a> BatchItem<'a> {
    /// A fault-free slot.
    pub fn new(session: &'a mut Session, config: &'a EngineConfig) -> Self {
        BatchItem {
            session,
            config,
            fault: StepFault::default(),
        }
    }
}

/// Verify-row accounting of one batched iteration — the hierarchical
/// mode's reason to exist, made measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchRowStats {
    /// Rows a single-pass fused forward would have computed for the same
    /// participants (every tree node, plus one per incremental row).
    pub single_pass_rows: usize,
    /// Rows actually forwarded in pass A (depth-1 frontiers plus
    /// incremental rows).
    pub pass_a_rows: usize,
    /// Rows actually forwarded in pass B (surviving subtrees only).
    pub pass_b_rows: usize,
}

impl BatchRowStats {
    /// Total rows the hierarchical schedule forwarded.
    pub fn forwarded_rows(&self) -> usize {
        self.pass_a_rows + self.pass_b_rows
    }

    /// Rows pruned relative to single-pass verification. Never negative:
    /// pass A (frontier) and pass B (one subtree) are disjoint subsets of
    /// the linearization.
    pub fn pruned_rows(&self) -> usize {
        self.single_pass_rows.saturating_sub(self.forwarded_rows())
    }

    /// Accumulates another iteration's counts.
    pub fn absorb(&mut self, other: &BatchRowStats) {
        self.single_pass_rows += other.single_pass_rows;
        self.pass_a_rows += other.pass_a_rows;
        self.pass_b_rows += other.pass_b_rows;
    }
}

/// Stacked rows of one proposal, staged for a fused forward.
struct Prep {
    /// Index into `items` of the session these rows belong to.
    idx: usize,
    tokens: Vec<TokenId>,
    positions: Vec<usize>,
    /// Block-diagonal visibility for these rows; `None` means causal.
    mask: Option<TopologyMask>,
}

/// [`LogitRows`] over a pass-A tensor: row `k` of the tensor holds the
/// logits of linearized index `lin_indices[k]` (sorted ascending — DFS
/// order lists the root, then depth-1 nodes in increasing index order).
struct SparseRows<'a> {
    tensor: &'a Tensor,
    lin_indices: &'a [usize],
}

impl LogitRows for SparseRows<'_> {
    fn row(&self, idx: usize) -> Option<&[f32]> {
        self.lin_indices
            .binary_search(&idx)
            .ok()
            .map(|k| self.tensor.row(k))
    }
}

/// [`LogitRows`] over a pass-B tensor: row `k` holds linearized index
/// `start + k` (the surviving subtree's contiguous DFS range).
struct RangeRows<'a> {
    tensor: &'a Tensor,
    start: usize,
}

impl LogitRows for RangeRows<'_> {
    fn row(&self, idx: usize) -> Option<&[f32]> {
        idx.checked_sub(self.start)
            .filter(|&k| k < self.tensor.rows())
            .map(|k| self.tensor.row(k))
    }
}

/// Per-participant verification state threaded between the two passes.
enum Slot {
    /// Non-tree participant: its single pass-A row's logits, kept for
    /// commit.
    Incremental(Tensor),
    /// Tree participant.
    Tree {
        /// Cache length before pass A appended any rows.
        base: usize,
        /// Pass-A logits (one row per frontier node).
        logits_a: Tensor,
        /// Sorted linearized indices of the frontier (root + depth-1).
        pa_lin: Vec<usize>,
        /// The (possibly paused) verification walk.
        walk: VerifyWalk,
        /// Pass-B state when the walk survived past the frontier.
        pass_b: Option<PassB>,
    },
}

/// One surviving subtree staged for (or returned from) pass B.
struct PassB {
    /// Linear index of the subtree root (the paused walk's current node).
    s0: usize,
    tokens: Vec<TokenId>,
    positions: Vec<usize>,
    mask: TopologyMask,
    logits_b: Option<Tensor>,
}

/// Drives N sessions through at most two LLM verification passes per
/// iteration.
#[derive(Debug)]
pub struct BatchedVerifier {
    hierarchical: bool,
}

impl Default for BatchedVerifier {
    fn default() -> Self {
        BatchedVerifier::new()
    }
}

impl BatchedVerifier {
    /// The default verifier: hierarchical two-pass verification.
    pub fn new() -> Self {
        BatchedVerifier { hierarchical: true }
    }

    /// The legacy schedule: every tree node forwarded in one pass. Kept
    /// for equivalence testing and row-count comparison benchmarks.
    pub fn single_pass() -> Self {
        BatchedVerifier {
            hierarchical: false,
        }
    }

    /// Advances every item by one decoding iteration, fusing all
    /// non-faulted LLM forwards into stacked passes.
    ///
    /// Returns one `Option<StepStats>` per item, in order — `None` for
    /// sessions that were already finished (exactly what
    /// [`crate::Session::step_faulted`] returns). Stall/OOM-faulted
    /// items fall out of the batch and are served serially on the
    /// incremental path.
    pub fn step_batch(
        &self,
        llm: &Transformer,
        ssms: &[&Transformer],
        items: &mut [BatchItem<'_>],
    ) -> Vec<Option<StepStats>> {
        self.step_batch_counted(llm, ssms, items).0
    }

    /// [`BatchedVerifier::step_batch`] plus the iteration's verify-row
    /// accounting.
    pub fn step_batch_counted(
        &self,
        llm: &Transformer,
        ssms: &[&Transformer],
        items: &mut [BatchItem<'_>],
    ) -> (Vec<Option<StepStats>>, BatchRowStats) {
        let proposals = propose_all(llm, ssms, items);
        if self.hierarchical {
            step_hierarchical(llm, ssms, items, proposals)
        } else {
            step_single_pass(llm, ssms, items, proposals)
        }
    }
}

/// Phase 1: fused speculation — propose for all sessions in one
/// data-parallel pass on the worker pool. Sessions are claimed one at a
/// time from the pool's cursor, so a session that drafts nothing (an
/// incremental-rung or fallback step) frees its thread for the next one.
/// Each session owns its caches and RNG stream and the kernels are
/// bitwise-identical at any thread count, so the proposals equal what
/// serial per-item sequencing emits.
fn propose_all(
    llm: &Transformer,
    ssms: &[&Transformer],
    items: &mut [BatchItem<'_>],
) -> Vec<Option<Proposal>> {
    let mut work: Vec<(&mut BatchItem<'_>, Option<Proposal>)> =
        items.iter_mut().map(|it| (it, None)).collect();
    specinfer_tensor::pool::for_each_mut(&mut work, |_, (it, slot)| {
        *slot = it.session.propose(llm, ssms, it.config, it.fault);
    });
    work.into_iter().map(|(_, proposal)| proposal).collect()
}

/// Runs one fused forward over `preps`, pairing each prep with its
/// item's cache handle in item order.
fn forward_fused(llm: &Transformer, items: &mut [BatchItem<'_>], preps: &[Prep]) -> Vec<Tensor> {
    if preps.is_empty() {
        return Vec::new();
    }
    let mut reqs: Vec<BatchRequest<'_>> = Vec::with_capacity(preps.len());
    let mut preps_it = preps.iter().peekable();
    for (idx, item) in items.iter_mut().enumerate() {
        if preps_it.peek().is_none_or(|p| p.idx != idx) {
            continue;
        }
        let prep = match preps_it.next() {
            Some(p) => p,
            None => unreachable!("peek above guarantees a prep"),
        };
        let visible = match &prep.mask {
            Some(mask) => Visibility::Tree(mask),
            None => Visibility::Causal,
        };
        reqs.push(BatchRequest {
            tokens: &prep.tokens,
            positions: &prep.positions,
            cache: item.session.llm_cache_mut(),
            visible,
        });
    }
    llm.forward_rows_batch(&mut reqs)
}

/// Advances a verification walk under `config` as far as `rows` allows,
/// drawing any stochastic decisions from the session's own RNG stream.
fn advance_walk(
    walk: &mut VerifyWalk,
    session: &mut Session,
    config: &EngineConfig,
    proposal: &Proposal,
    rows: &dyn LogitRows,
) {
    let (spec, lin) = match proposal.speculation() {
        Some(parts) => parts,
        None => unreachable!("walks only run for tree proposals"),
    };
    match &config.decode {
        DecodeMode::Greedy => advance_greedy(walk, &spec.tree, lin, rows),
        mode => match config.verifier {
            StochasticVerifier::MultiStep => advance_stochastic(
                walk,
                &spec.tree,
                lin,
                rows,
                &spec.dists,
                mode,
                session.rng_mut(),
            ),
            StochasticVerifier::Naive => {
                advance_naive(walk, &spec.tree, lin, rows, mode, session.rng_mut())
            }
        },
    }
}

/// The legacy single-pass schedule: every tree node of every participant
/// forwarded in one stacked pass, verification inside commit.
fn step_single_pass(
    llm: &Transformer,
    ssms: &[&Transformer],
    items: &mut [BatchItem<'_>],
    mut proposals: Vec<Option<Proposal>>,
) -> (Vec<Option<StepStats>>, BatchRowStats) {
    let mut row_stats = BatchRowStats::default();
    // Stage the stacked rows of every batch participant. Faulted
    // (forced-incremental) proposals are excluded: they run serially
    // below so a fault cannot perturb the fused pass.
    let mut preps: Vec<Prep> = Vec::with_capacity(items.len());
    for (idx, (proposal, item)) in proposals.iter().zip(items.iter()).enumerate() {
        let Some(p) = proposal else { continue };
        if p.forced_incremental() {
            continue;
        }
        let base = item.session.llm_cache_len();
        let (tokens, positions, mask) = match p.tree() {
            Some(lin) => (
                lin.tokens().to_vec(),
                lin.depths().iter().map(|d| base + d).collect(),
                Some(lin.mask().clone()),
            ),
            None => (vec![item.session.last_token()], vec![base], None),
        };
        row_stats.single_pass_rows += tokens.len();
        row_stats.pass_a_rows += tokens.len();
        preps.push(Prep {
            idx,
            tokens,
            positions,
            mask,
        });
    }

    // Phase 2: one fused forward over all participants.
    let batched_logits = forward_fused(llm, items, &preps);

    // Phase 3: commit per-session, in item order. Batched items
    // consume their logits slice; faulted items run the serial
    // incremental forward here, after the fused pass.
    let mut stats: Vec<Option<StepStats>> = Vec::with_capacity(items.len());
    let mut batched_iter = batched_logits.into_iter();
    for (item, proposal) in items.iter_mut().zip(proposals.iter_mut()) {
        let Some(proposal) = proposal.take() else {
            stats.push(None);
            continue;
        };
        let logits = if proposal.forced_incremental() {
            item.session.forward_proposal(llm, &proposal)
        } else {
            match batched_iter.next() {
                Some(l) => l,
                None => unreachable!("every batch participant has a logits tensor"),
            }
        };
        stats.push(Some(item.session.commit(
            ssms,
            item.config,
            proposal,
            &logits,
        )));
    }
    (stats, row_stats)
}

/// The hierarchical two-pass schedule. See the module docs for the row
/// accounting and the bitwise-equality argument.
fn step_hierarchical(
    llm: &Transformer,
    ssms: &[&Transformer],
    items: &mut [BatchItem<'_>],
    mut proposals: Vec<Option<Proposal>>,
) -> (Vec<Option<StepStats>>, BatchRowStats) {
    let mut row_stats = BatchRowStats::default();
    let n = items.len();

    // Stage pass A: each tree's depth-1 frontier (root + depth-1
    // children — a sorted prefix-closed subset of the DFS order), or the
    // one causal row of a non-tree participant.
    let mut preps_a: Vec<Prep> = Vec::with_capacity(n);
    let mut frontier_of: Vec<Option<(usize, Vec<usize>)>> = Vec::with_capacity(n);
    frontier_of.resize_with(n, || None);
    for (idx, (proposal, item)) in proposals.iter().zip(items.iter()).enumerate() {
        let Some(p) = proposal else { continue };
        if p.forced_incremental() {
            continue;
        }
        let base = item.session.llm_cache_len();
        match p.tree() {
            Some(lin) => {
                let full = lin.mask();
                let pa_lin: Vec<usize> = lin
                    .depths()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d <= 1)
                    .map(|(i, _)| i)
                    .collect();
                let tokens: Vec<TokenId> = pa_lin
                    .iter()
                    .map(|&i| lin.tokens().get(i).copied().unwrap_or_default())
                    .collect();
                let positions: Vec<usize> = pa_lin
                    .iter()
                    .map(|&i| base + lin.depths().get(i).copied().unwrap_or_default())
                    .collect();
                let mask = TopologyMask::from_fn(pa_lin.len(), |i, j| {
                    match (pa_lin.get(i), pa_lin.get(j)) {
                        (Some(&a), Some(&b)) => full.allowed(a, b),
                        _ => false,
                    }
                });
                row_stats.single_pass_rows += lin.len();
                row_stats.pass_a_rows += pa_lin.len();
                preps_a.push(Prep {
                    idx,
                    tokens,
                    positions,
                    mask: Some(mask),
                });
                if let Some(slot) = frontier_of.get_mut(idx) {
                    *slot = Some((base, pa_lin));
                }
            }
            None => {
                row_stats.single_pass_rows += 1;
                row_stats.pass_a_rows += 1;
                preps_a.push(Prep {
                    idx,
                    tokens: vec![item.session.last_token()],
                    positions: vec![base],
                    mask: None,
                });
            }
        }
    }

    // Pass A: one fused forward over every participant's frontier.
    let logits_a = forward_fused(llm, items, &preps_a);

    // Distribute pass-A logits into per-participant slots.
    let mut slots: Vec<Option<Slot>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut logits_iter = logits_a.into_iter();
    for prep in &preps_a {
        let logits = match logits_iter.next() {
            Some(l) => l,
            None => unreachable!("every pass-A participant has a logits tensor"),
        };
        let slot = match frontier_of.get_mut(prep.idx).and_then(|f| f.take()) {
            Some((base, pa_lin)) => Slot::Tree {
                base,
                logits_a: logits,
                pa_lin,
                walk: VerifyWalk::new(),
                pass_b: None,
            },
            None => Slot::Incremental(logits),
        };
        if let Some(s) = slots.get_mut(prep.idx) {
            *s = Some(slot);
        }
    }

    // Run every tree walk as far as the frontier rows allow. A walk that
    // finishes here killed its deep subtrees: they are pruned, never
    // forwarded. A paused walk names exactly one surviving depth-2 node;
    // its subtree (a contiguous DFS range) is staged for pass B, and the
    // session's cache tail is compacted to [root, survivor] — a prefix
    // of what commit retains anyway, making every remaining cache row an
    // ancestor of every pass-B row.
    for ((item, proposal), slot) in items.iter_mut().zip(proposals.iter()).zip(slots.iter_mut()) {
        let (
            Some(proposal),
            Some(Slot::Tree {
                base,
                logits_a,
                pa_lin,
                walk,
                pass_b,
            }),
        ) = (proposal.as_ref(), slot.as_mut())
        else {
            continue;
        };
        let rows = SparseRows {
            tensor: &*logits_a,
            lin_indices: pa_lin,
        };
        advance_walk(walk, item.session, item.config, proposal, &rows);
        if walk.is_done() {
            continue;
        }
        let lin = match proposal.tree() {
            Some(lin) => lin,
            None => unreachable!("tree slots hold tree proposals"),
        };
        // The walk paused at a depth-2 node: its depth-1 parent is the
        // chosen branch.
        let s0 = lin.index_of(walk.current());
        let end = lin.subtree_end(s0);
        let parent = match lin.parents().get(s0).copied().flatten() {
            Some(p) => p,
            None => unreachable!("paused walks sit at depth >= 2"),
        };
        let parent_pos = match pa_lin.binary_search(&parent) {
            Ok(k) => k,
            Err(_) => unreachable!("the pause node's parent is on the frontier"),
        };
        // Compact the appended tail to [root, chosen depth-1 child].
        item.session
            .llm_cache_mut()
            .retain_rows(*base, &[0, parent_pos]);
        let full = lin.mask();
        let mask = TopologyMask::from_fn(end - s0, |i, j| full.allowed(s0 + i, s0 + j));
        let tokens: Vec<TokenId> = lin.tokens().get(s0..end).unwrap_or(&[]).to_vec();
        let positions: Vec<usize> = lin
            .depths()
            .get(s0..end)
            .unwrap_or(&[])
            .iter()
            .map(|d| *base + d)
            .collect();
        row_stats.pass_b_rows += end - s0;
        *pass_b = Some(PassB {
            s0,
            tokens,
            positions,
            mask,
            logits_b: None,
        });
    }

    // Pass B: one fused forward over the surviving subtrees.
    let mut preps_b: Vec<Prep> = Vec::new();
    for (idx, slot) in slots.iter().enumerate() {
        let Some(Slot::Tree {
            pass_b: Some(pb), ..
        }) = slot
        else {
            continue;
        };
        preps_b.push(Prep {
            idx,
            tokens: pb.tokens.clone(),
            positions: pb.positions.clone(),
            mask: Some(pb.mask.clone()),
        });
    }
    let logits_b = forward_fused(llm, items, &preps_b);
    let mut logits_iter = logits_b.into_iter();
    for prep in &preps_b {
        let logits = match logits_iter.next() {
            Some(l) => l,
            None => unreachable!("every pass-B participant has a logits tensor"),
        };
        if let Some(Some(Slot::Tree {
            pass_b: Some(pb), ..
        })) = slots.get_mut(prep.idx)
        {
            pb.logits_b = Some(logits);
        }
    }

    // Resume the paused walks: every node reachable from the pause point
    // lies inside the forwarded subtree, so each walk must finish.
    for ((item, proposal), slot) in items.iter_mut().zip(proposals.iter()).zip(slots.iter_mut()) {
        let (
            Some(proposal),
            Some(Slot::Tree {
                walk,
                pass_b: Some(pb),
                ..
            }),
        ) = (proposal.as_ref(), slot.as_mut())
        else {
            continue;
        };
        let logits = match &pb.logits_b {
            Some(l) => l,
            None => unreachable!("pass B forwarded every staged subtree"),
        };
        let rows = RangeRows {
            tensor: logits,
            start: pb.s0,
        };
        advance_walk(walk, item.session, item.config, proposal, &rows);
        assert!(
            walk.is_done(),
            "a resumed walk cannot escape its forwarded subtree"
        );
    }

    // Phase 3: commit per-session, in item order. Tree participants
    // commit their finished walk with keep-positions describing the
    // two-pass cache layout; faulted items run the serial incremental
    // forward here, after the fused passes.
    let mut stats: Vec<Option<StepStats>> = Vec::with_capacity(n);
    for ((item, proposal), slot) in items
        .iter_mut()
        .zip(proposals.iter_mut())
        .zip(slots.into_iter())
    {
        let Some(proposal) = proposal.take() else {
            stats.push(None);
            continue;
        };
        match slot {
            None => {
                // Forced-incremental (faulted): serial path.
                let logits = item.session.forward_proposal(llm, &proposal);
                stats.push(Some(item.session.commit(
                    ssms,
                    item.config,
                    proposal,
                    &logits,
                )));
            }
            Some(Slot::Incremental(logits)) => {
                stats.push(Some(item.session.commit(
                    ssms,
                    item.config,
                    proposal,
                    &logits,
                )));
            }
            Some(Slot::Tree {
                base,
                pa_lin,
                walk,
                pass_b,
                ..
            }) => {
                let lin = match proposal.tree() {
                    Some(lin) => lin,
                    None => unreachable!("tree slots hold tree proposals"),
                };
                let outcome = {
                    assert!(walk.is_done(), "all walks finished above");
                    walk.into_outcome()
                };
                // Positions of root + accepted nodes relative to `base`,
                // in the cache's current tail layout.
                let keep = match &pass_b {
                    None => {
                        // Tail layout: the pass-A frontier. At most one
                        // frontier node (the chosen depth-1 child) was
                        // accepted.
                        let mut keep = vec![0usize];
                        for u in &outcome.nodes {
                            match pa_lin.binary_search(&lin.index_of(*u)) {
                                Ok(k) => keep.push(k),
                                Err(_) => {
                                    unreachable!("unpaused walks accept frontier nodes only")
                                }
                            }
                        }
                        keep
                    }
                    Some(pb) => {
                        // Tail layout after compaction + pass B:
                        // [root, chosen child, subtree rows...].
                        let mut keep = vec![0usize, 1usize];
                        for u in outcome.nodes.iter().skip(1) {
                            keep.push(2 + lin.index_of(*u) - pb.s0);
                        }
                        keep
                    }
                };
                stats.push(Some(item.session.commit_verified(
                    ssms,
                    item.config,
                    proposal,
                    outcome,
                    base,
                    keep,
                )));
            }
        }
    }
    (stats, row_stats)
}
