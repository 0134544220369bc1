//! The speculative generation engine: Algorithm 2's outer loop.
//!
//! A [`Session`] owns the per-request state (token sequence, LLM cache,
//! one cache per SSM) and advances one *decoding iteration* at a time —
//! exactly the granularity the serving layer's continuous batching
//! schedules. [`SpecEngine`] packages models + configuration for
//! single-request generation.

use std::collections::VecDeque;

use specinfer_model::{sampler, DecodeMode, KvCache, Transformer, Visibility};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::Tensor;
use specinfer_tokentree::{ExpansionConfig, LinearizedTree, TokenId, TokenTree};

use crate::controller::{
    draft_flop_weight, AdaptiveConfig, AdaptiveDecision, ControllerSnapshot, DraftShape,
    SpecController,
};
use crate::speculator::{
    expand_into, speculate_garbage, speculate_pool_parallel, ExpansionMode, Speculation,
    SsmDistTable,
};
use crate::verifier::{
    verify_greedy, verify_naive, verify_stochastic, StochasticVerifier, VerifyOutcome,
};

/// Which inference algorithm drives a generation.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceMode {
    /// Ordinary incremental decoding (Algorithm 1) — one LLM pass per
    /// token. The baseline every system in Figure 7 implements.
    Incremental,
    /// Sequence-based speculative inference: a single SSM speculates a
    /// depth-`m` chain (tree width 1).
    SequenceSpeculative {
        /// Speculation depth `m`.
        depth: usize,
    },
    /// Tree-based speculative inference (the paper's contribution).
    TreeSpeculative {
        /// The expansion schedule ⟨k₁…k_m⟩ applied by every SSM.
        expansion: ExpansionConfig,
    },
    /// Best-first *dynamic* tree expansion — this repository's
    /// implementation of the paper's stated future work (§3). Uses the
    /// first SSM of the pool. Greedy verification stays exactly
    /// lossless; for stochastic decoding prefer the naive-sampling
    /// verifier (see [`crate::dynamic`] for the semantics discussion).
    DynamicTree {
        /// Budget and pruning knobs.
        config: crate::dynamic::DynamicExpansionConfig,
    },
    /// Online per-request adaptive speculation (ROADMAP item 3): a
    /// [`SpecController`] inside each session tracks acceptance EWMAs and
    /// picks every iteration's draft shape from a ladder spanning
    /// incremental ⇄ sequence ⇄ dynamic ⇄ `paper_default`, plus the SSM
    /// to draft with (SPIN-style accepted-per-draft-FLOP routing). Greedy
    /// decoding stays exactly lossless for every shape on the ladder; the
    /// stochastic ladder uses sampled drafts only, preserving MSS
    /// exactness (Theorem 4.2).
    Adaptive {
        /// Controller tuning (EWMA factors, hysteresis, probe period).
        config: AdaptiveConfig,
    },
}

/// Engine-level configuration shared across requests.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// How the LLM's output distribution is decoded.
    pub decode: DecodeMode,
    /// Stochastic verification algorithm (ignored under greedy decoding).
    pub verifier: StochasticVerifier,
    /// The inference algorithm.
    pub mode: InferenceMode,
    /// Stop after this many generated tokens (the paper uses 128).
    pub max_new_tokens: usize,
    /// Generation stops when this token is produced.
    pub eos_token: Option<TokenId>,
}

impl EngineConfig {
    /// Greedy tree-speculative config with the paper's default expansion.
    pub fn greedy_tree() -> Self {
        EngineConfig {
            decode: DecodeMode::Greedy,
            verifier: StochasticVerifier::MultiStep,
            mode: InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::paper_default(),
            },
            max_new_tokens: 128,
            eos_token: Some(specinfer_workload_eos()),
        }
    }

    /// Worst-case KV rows one decoding iteration appends before commit
    /// compacts back to the accepted path: the speculated node count
    /// plus the tree root, or a single row when incremental.
    ///
    /// A session whose LLM cache holds
    /// `prompt_len + max_new_tokens + speculation_rows()` rows can never
    /// hit a capacity guard that a full-capacity session would not also
    /// hit, so budgeted sessions stay bitwise-identical to unbudgeted
    /// ones (see [`Session::try_new_budgeted`]).
    pub fn speculation_rows(&self) -> usize {
        match &self.mode {
            InferenceMode::Incremental => 1,
            InferenceMode::SequenceSpeculative { depth } => {
                ExpansionConfig::sequence(*depth).node_count() + 1
            }
            InferenceMode::TreeSpeculative { expansion } => expansion.node_count() + 1,
            InferenceMode::DynamicTree { config } => config.max_nodes + 1,
            // The adaptive ladder tops out at paper_default, so the
            // worst case over every rung the controller can pick is the
            // paper tree plus the root. Reserving this keeps budgeted
            // adaptive sessions bitwise-identical to full-capacity ones
            // no matter how the controller moves; the per-iteration cost
            // of the rung actually chosen is
            // [`Session::current_speculation_rows`].
            InferenceMode::Adaptive { .. } => ExpansionConfig::paper_default().node_count() + 1,
        }
    }
}

// The EOS convention of the workloads crate, duplicated here to avoid a
// dependency cycle; pinned by a test in the facade crate.
const fn specinfer_workload_eos() -> TokenId {
    1
}

/// Faults injected into one decoding iteration of one session.
///
/// Produced by the serving layer's deterministic fault plan and consumed
/// by [`Session::step_faulted`]. All faults are *lossless under greedy
/// decoding*: a stalled or garbage SSM degrades throughput (the engine
/// falls back to incremental decoding or rejects the drafts) but never
/// changes the emitted tokens, so a chaos run's surviving outputs are
/// comparable bit-for-bit against a fault-free run of the same seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepFault {
    /// The SSM pool emits garbage logits this iteration: drafts are drawn
    /// uniformly from the vocabulary by a dedicated RNG with this seed
    /// (the session's own RNG stream is untouched).
    pub ssm_garbage: Option<u64>,
    /// The SSM pool stalls this iteration: no speculation is available
    /// and the engine decodes one token incrementally.
    pub ssm_stall: bool,
    /// The KV arena reports (simulated) memory pressure: speculated rows
    /// cannot be allocated, so the engine decodes incrementally.
    pub kv_oom: bool,
}

impl StepFault {
    /// Whether no fault is injected.
    pub fn is_noop(&self) -> bool {
        self.ssm_garbage.is_none() && !self.ssm_stall && !self.kv_oom
    }
}

/// When and how a session abandons speculation (the degradation ladder).
///
/// A session watches the acceptance fraction (accepted / tree size) over
/// a sliding window of speculative iterations. When the mean falls below
/// `accept_floor` — an SSM emitting garbage, or simply a hopeless prompt
/// — speculating costs more than it saves, so the session *falls back* to
/// incremental decoding for `cooldown` iterations, then re-probes
/// speculation. Fallback and recovery are pure functions of the step
/// statistics, so seeded runs stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Mean acceptance fraction below which speculation is abandoned.
    pub accept_floor: f64,
    /// Number of speculative iterations averaged; `0` disables the
    /// ladder entirely.
    pub window: usize,
    /// Incremental iterations served before re-probing speculation.
    pub cooldown: usize,
}

impl DegradationPolicy {
    /// The ladder the serving layer enables by default.
    pub fn serving_default() -> Self {
        DegradationPolicy {
            accept_floor: 0.1,
            window: 4,
            cooldown: 6,
        }
    }

    /// Never falls back (the engine's historical behaviour).
    pub fn disabled() -> Self {
        DegradationPolicy {
            accept_floor: 0.0,
            window: 0,
            cooldown: 0,
        }
    }

    /// Whether the ladder is active.
    pub fn is_enabled(&self) -> bool {
        self.window > 0
    }
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy::serving_default()
    }
}

/// Counters of faults absorbed and fallbacks taken by one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Iterations that had any fault injected.
    pub faulted_steps: usize,
    /// Iterations forced incremental by a stall or simulated OOM.
    pub forced_incremental: usize,
    /// Times the acceptance ladder switched to incremental decoding.
    pub fallbacks_taken: usize,
    /// Iterations served incrementally while in fallback.
    pub fallback_steps: usize,
    /// Times the session re-probed speculation after a cooldown.
    pub reprobes: usize,
}

/// Per-iteration statistics of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Nodes in the speculated tree (0 for incremental decoding).
    pub tree_size: usize,
    /// Speculated tokens that passed verification.
    pub accepted: usize,
    /// Tokens appended this iteration (accepted + bonus, or 1).
    pub emitted: usize,
}

/// The completed output of a generation.
#[derive(Debug, Clone)]
pub struct GenerationResult {
    /// Prompt plus all generated tokens (truncated at EOS if hit).
    pub tokens: Vec<TokenId>,
    /// Number of prompt tokens at the front of `tokens`.
    pub prompt_len: usize,
    /// Per-iteration statistics.
    pub steps: Vec<StepStats>,
}

impl GenerationResult {
    /// The generated tokens (everything after the prompt).
    pub fn generated(&self) -> &[TokenId] {
        self.tokens.get(self.prompt_len..).unwrap_or(&[])
    }

    /// Number of LLM decoding iterations used.
    pub fn llm_steps(&self) -> usize {
        self.steps.len()
    }

    /// Mean number of tokens verified per LLM decoding step — the
    /// paper's Table 2 / Table 3 metric.
    pub fn tokens_per_step(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.generated().len() as f64 / self.steps.len() as f64
        }
    }
}

/// A rejected generation request.
///
/// This is the *request-facing* fallible surface of the engine: bad
/// inputs (empty or oversized prompts) come back as values so a serving
/// daemon can retire one request instead of panicking a whole batch.
/// Invariant violations inside a healthy session still panic loudly
/// (`assert!`/`unreachable!`) — see ARCHITECTURE.md §8 for the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The prompt holds no tokens; there is nothing to root a tree on.
    EmptyPrompt,
    /// The prompt exceeds a participating model's context window.
    PromptTooLong {
        /// Prompt length in tokens.
        len: usize,
        /// The smallest `max_seq_len` across the LLM and the SSM pool.
        max: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyPrompt => write!(f, "prompt must hold at least one token"),
            EngineError::PromptTooLong { len, max } => {
                write!(
                    f,
                    "prompt of {len} tokens exceeds the context window ({max})"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One proposed decoding iteration, produced by [`Session::propose`].
///
/// Splitting the old monolithic step at the LLM-forward boundary is what
/// lets [`crate::BatchedVerifier`] fuse the verification forwards of
/// many sessions into one stacked pass: speculation (phase 1) and
/// sampling/commit (phase 3) stay per-session, while phase 2 — the only
/// part that touches the LLM — batches.
#[derive(Debug)]
pub(crate) struct Proposal {
    kind: ProposalKind,
    speculative_mode: bool,
    forced_incremental: bool,
    in_fallback: bool,
    /// The controller decision behind this proposal (adaptive mode only);
    /// fed back to the controller at commit.
    decision: Option<AdaptiveDecision>,
}

#[derive(Debug)]
enum ProposalKind {
    /// One ordinary causal row: the sequence's last token.
    Incremental,
    /// A speculated token tree awaiting tree-parallel verification.
    /// Boxed so the dataless `Incremental` variant doesn't inflate every
    /// `Proposal` to the tree payload's size.
    Tree(Box<TreeProposal>),
}

#[derive(Debug)]
struct TreeProposal {
    spec: Speculation,
    lin: LinearizedTree,
}

impl ProposalKind {
    fn tree(spec: Speculation) -> Self {
        let lin = LinearizedTree::new(&spec.tree);
        ProposalKind::Tree(Box::new(TreeProposal { spec, lin }))
    }
}

impl Proposal {
    /// The linearized tree to verify, or `None` for an incremental row.
    pub(crate) fn tree(&self) -> Option<&LinearizedTree> {
        match &self.kind {
            ProposalKind::Tree(t) => Some(&t.lin),
            ProposalKind::Incremental => None,
        }
    }

    /// The speculation and its linearization, or `None` for an
    /// incremental row. The hierarchical batched verifier drives the
    /// verification walk itself and needs the draft distributions.
    pub(crate) fn speculation(&self) -> Option<(&Speculation, &LinearizedTree)> {
        match &self.kind {
            ProposalKind::Tree(t) => Some((&t.spec, &t.lin)),
            ProposalKind::Incremental => None,
        }
    }

    /// Whether a fault (stall/OOM) forced this proposal incremental.
    /// The batched verifier routes such proposals through the serial
    /// path so a faulted request never poisons its batch-mates.
    pub(crate) fn forced_incremental(&self) -> bool {
        self.forced_incremental
    }
}

/// Per-request generation state, advanced one decoding iteration at a
/// time.
///
/// The KV-cache invariant maintained between iterations: every cache
/// (LLM and SSMs) holds rows for all tokens of the sequence *except the
/// last one* — the last token is the root the next speculated tree grows
/// from (Figure 4 feeds the verified token together with the speculated
/// ones).
#[derive(Debug)]
pub struct Session {
    tokens: Vec<TokenId>,
    prompt_len: usize,
    llm_cache: KvCache,
    ssm_caches: Vec<KvCache>,
    rng: SeededRng,
    steps: Vec<StepStats>,
    finished: bool,
    policy: DegradationPolicy,
    degradation: DegradationStats,
    accept_window: VecDeque<f64>,
    fallback_until: Option<usize>,
    /// Adaptive speculation state, installed lazily on the first
    /// [`InferenceMode::Adaptive`] proposal (it needs the SSM pool's FLOP
    /// weights, which only arrive with the first step).
    controller: Option<SpecController>,
}

impl Session {
    /// Starts a session: prefills the prompt (all but its last token)
    /// into the LLM cache and every SSM cache.
    ///
    /// This is the panicking convenience constructor for trusted callers
    /// (tests, benches, the CLI). Serving paths use [`Session::try_new`]
    /// and retire the request on `Err` instead.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or longer than a model's
    /// `max_seq_len`.
    pub fn new(llm: &Transformer, ssms: &[&Transformer], prompt: &[TokenId], seed: u64) -> Self {
        match Session::try_new(llm, ssms, prompt, seed) {
            Ok(s) => s,
            Err(e) => panic!("invalid generation request: {e}"),
        }
    }

    /// Fallible [`Session::new`]: rejects empty prompts and prompts that
    /// cannot fit any participating model's context window.
    pub fn try_new(
        llm: &Transformer,
        ssms: &[&Transformer],
        prompt: &[TokenId],
        seed: u64,
    ) -> Result<Self, EngineError> {
        Session::try_new_budgeted(llm, ssms, prompt, seed, usize::MAX)
    }

    /// [`Session::try_new`] with the LLM KV slab and every SSM cache
    /// sized to `kv_rows` instead of the models' full `max_seq_len`.
    ///
    /// Ragged serving right-sizes each session's slab so hundreds of
    /// short requests fit in memory at once. A budget of at least
    /// `prompt.len() + max_new_tokens +`
    /// [`EngineConfig::speculation_rows`] is provably sufficient for
    /// bitwise-identical behavior to the full-capacity session: the last
    /// decoding iteration starts with at most `prompt + max_new − 2`
    /// committed rows, so neither the context-exhaustion guard nor the
    /// speculation-fits check can trigger before generation finishes.
    /// Smaller budgets are accepted but degrade to incremental decoding
    /// (and eventually early termination) near the capacity limit.
    pub fn try_new_budgeted(
        llm: &Transformer,
        ssms: &[&Transformer],
        prompt: &[TokenId],
        seed: u64,
        kv_rows: usize,
    ) -> Result<Self, EngineError> {
        if prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let max = ssms
            .iter()
            .map(|s| s.config().max_seq_len)
            .fold(llm.config().max_seq_len, usize::min);
        if prompt.len() > max {
            return Err(EngineError::PromptTooLong {
                len: prompt.len(),
                max,
            });
        }
        // Everything but the last token is prefilled; the last token
        // roots the first speculated tree.
        let head = prompt.split_last().map(|(_, h)| h).unwrap_or(&[]);
        let rows = kv_rows.max(prompt.len());
        let mut llm_cache = llm.new_cache_with_capacity(rows);
        if !head.is_empty() {
            let _ = llm.prefill(head, &mut llm_cache);
        }
        // The SSM caches get the same budget: they hold the verified
        // context (never more rows than the LLM cache) plus the draft
        // rows `speculation_fits` checks against the LLM cache too.
        let ssm_caches = ssms
            .iter()
            .map(|ssm| {
                let mut c = ssm.new_cache_with_capacity(rows);
                if !head.is_empty() {
                    let _ = ssm.prefill(head, &mut c);
                }
                c
            })
            .collect();
        Ok(Session {
            tokens: prompt.to_vec(),
            prompt_len: prompt.len(),
            llm_cache,
            ssm_caches,
            rng: SeededRng::new(seed),
            steps: Vec::new(),
            finished: false,
            policy: DegradationPolicy::disabled(),
            degradation: DegradationStats::default(),
            accept_window: VecDeque::new(),
            fallback_until: None,
            controller: None,
        })
    }

    /// The root for the next speculated tree: the last token of the
    /// sequence. [`Session::try_new`] guarantees a non-empty prompt and
    /// decoding only appends, so the sequence can never be empty.
    pub(crate) fn last_token(&self) -> TokenId {
        match self.tokens.last() {
            Some(&t) => t,
            None => unreachable!("sessions always hold at least the prompt"),
        }
    }

    /// Committed length of the LLM KV cache (rows of verified context).
    pub(crate) fn llm_cache_len(&self) -> usize {
        self.llm_cache.len()
    }

    /// Committed KV rows of verified context (public mirror of
    /// [`Session::llm_cache_len`], for occupancy accounting).
    pub fn kv_rows(&self) -> usize {
        self.llm_cache.len()
    }

    /// Capacity of the LLM KV slab in rows — `max_seq_len` for
    /// [`Session::try_new`], the clamped budget for
    /// [`Session::try_new_budgeted`].
    pub fn kv_capacity(&self) -> usize {
        self.llm_cache.max_len()
    }

    /// The LLM KV cache, for the batched verifier's stacked forward.
    pub(crate) fn llm_cache_mut(&mut self) -> &mut KvCache {
        &mut self.llm_cache
    }

    /// The session's RNG stream, for the hierarchical batched verifier's
    /// out-of-session stochastic walks. Consumed node-by-node exactly as
    /// the serial verifier would.
    pub(crate) fn rng_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// Speculation rows the session's *next* iteration will actually
    /// append: the controller's current rung under
    /// [`InferenceMode::Adaptive`], the static worst case otherwise.
    /// This is the per-request occupancy cost `admit_budgeted` charges —
    /// the width-vs-batch-depth tradeoff: a request parked at incremental
    /// frees ~20 rows of budget for admitting more batch-mates.
    pub fn current_speculation_rows(&self, config: &EngineConfig) -> usize {
        match (&config.mode, &self.controller) {
            (InferenceMode::Adaptive { .. }, Some(c)) => c.current_rows(),
            _ => config.speculation_rows(),
        }
    }

    /// Telemetry snapshot of the adaptive controller, if this session has
    /// one (i.e. it stepped under [`InferenceMode::Adaptive`]).
    pub fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        self.controller.as_ref().map(|c| c.snapshot())
    }

    /// Enables (or replaces) the acceptance-collapse degradation ladder.
    pub fn set_degradation_policy(&mut self, policy: DegradationPolicy) {
        self.policy = policy;
    }

    /// Counters of faults absorbed and fallbacks taken so far.
    pub fn degradation(&self) -> DegradationStats {
        self.degradation
    }

    /// Whether the session is currently decoding incrementally because
    /// the degradation ladder fell back.
    pub fn in_fallback(&self) -> bool {
        self.fallback_until
            .is_some_and(|until| self.steps.len() < until)
    }

    /// The full token sequence so far (prompt included).
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Tokens generated so far.
    pub fn generated(&self) -> &[TokenId] {
        self.tokens.get(self.prompt_len..).unwrap_or(&[])
    }

    /// Whether generation has hit EOS or its budget.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Per-iteration statistics so far.
    pub fn steps(&self) -> &[StepStats] {
        &self.steps
    }

    /// Runs one decoding iteration under `config`, using `ssms` for
    /// speculation (ignored for incremental mode). Returns the stats of
    /// the iteration, or `None` if the session was already finished.
    pub fn step(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        config: &EngineConfig,
    ) -> Option<StepStats> {
        self.step_faulted(llm, ssms, config, StepFault::default())
    }

    /// Like [`Session::step`], but with `fault` injected into the
    /// iteration. A stall or simulated OOM forces incremental decoding;
    /// garbage logits replace the SSM drafts with uniform draws (which
    /// greedy verification rejects and stochastic verification absorbs
    /// via the residual, keeping the output distribution exact). The
    /// degradation ladder ([`DegradationPolicy`]) watches acceptance and
    /// falls back to incremental decoding when speculation collapses.
    pub fn step_faulted(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        config: &EngineConfig,
        fault: StepFault,
    ) -> Option<StepStats> {
        let proposal = self.propose(llm, ssms, config, fault)?;
        let logits = self.forward_proposal(llm, &proposal);
        Some(self.commit(ssms, config, proposal, &logits))
    }

    /// Phase 1 of an iteration: decide what the LLM must verify.
    ///
    /// Runs the fault/fallback bookkeeping and — for speculative modes —
    /// the whole SSM expansion, consuming the session's RNG stream
    /// exactly as [`Session::step_faulted`] always has. Returns `None`
    /// when the session is finished (or just exhausted its context).
    /// The returned [`Proposal`] must be carried through
    /// [`Session::forward_proposal`] and [`Session::commit`] before the
    /// session can step again.
    pub(crate) fn propose(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        config: &EngineConfig,
        fault: StepFault,
    ) -> Option<Proposal> {
        if self.finished {
            return None;
        }
        // Context-window guard: when even one more row would overflow the
        // KV cache, the sequence has exhausted the model's context — end
        // the generation instead of panicking mid-flight.
        if self.llm_cache.len() + 1 > self.llm_cache.max_len() {
            self.finished = true;
            return None;
        }
        if !fault.is_noop() {
            self.degradation.faulted_steps += 1;
        }
        let idx = self.steps.len();
        // Cooldown over → re-probe speculation with a fresh window.
        if let Some(until) = self.fallback_until {
            if idx >= until {
                self.fallback_until = None;
                self.degradation.reprobes += 1;
                self.accept_window.clear();
            }
        }
        let speculative_mode = !matches!(config.mode, InferenceMode::Incremental);
        let forced_incremental = speculative_mode && (fault.ssm_stall || fault.kv_oom);
        let in_fallback = speculative_mode && self.fallback_until.is_some();

        let mut decision = None;
        let kind = if forced_incremental {
            self.degradation.forced_incremental += 1;
            ProposalKind::Incremental
        } else if in_fallback {
            self.degradation.fallback_steps += 1;
            ProposalKind::Incremental
        } else {
            match &config.mode {
                InferenceMode::Incremental => ProposalKind::Incremental,
                InferenceMode::SequenceSpeculative { depth } => {
                    let expansion = ExpansionConfig::sequence(*depth);
                    if self.speculation_fits(ssms, expansion.node_count()) {
                        self.propose_speculative(llm, ssms, &expansion, config, fault.ssm_garbage)
                    } else {
                        ProposalKind::Incremental
                    }
                }
                InferenceMode::TreeSpeculative { expansion } => {
                    if self.speculation_fits(ssms, expansion.node_count()) {
                        self.propose_speculative(llm, ssms, expansion, config, fault.ssm_garbage)
                    } else {
                        // Near the context limit a full tree no longer fits;
                        // degrade to incremental decoding for the tail.
                        ProposalKind::Incremental
                    }
                }
                InferenceMode::DynamicTree { config: dyn_cfg } => {
                    if self.speculation_fits(ssms, dyn_cfg.max_nodes) {
                        self.propose_dynamic(llm, ssms, dyn_cfg, 0, fault.ssm_garbage)
                    } else {
                        ProposalKind::Incremental
                    }
                }
                InferenceMode::Adaptive { config: acfg } => {
                    if ssms.is_empty() {
                        // No drafters: adaptive degenerates to incremental.
                        ProposalKind::Incremental
                    } else {
                        self.ensure_controller(acfg, config, ssms);
                        let d = match self.controller.as_mut() {
                            Some(c) => c.decide(),
                            None => unreachable!("ensure_controller installs one"),
                        };
                        if matches!(d.shape, DraftShape::Incremental) {
                            decision = Some(d);
                            ProposalKind::Incremental
                        } else if self.speculation_fits(ssms, d.shape.node_count()) {
                            let kind =
                                self.propose_adaptive(llm, ssms, &d, config, fault.ssm_garbage);
                            decision = Some(d);
                            kind
                        } else {
                            // Near the context limit the chosen shape no
                            // longer fits: decode incrementally and drop
                            // the decision so the controller is not
                            // penalized for a draft that never ran.
                            ProposalKind::Incremental
                        }
                    }
                }
            }
        };
        Some(Proposal {
            kind,
            speculative_mode,
            forced_incremental,
            in_fallback,
            decision,
        })
    }

    /// Installs the adaptive controller on first use: it needs the SSM
    /// pool's relative draft-FLOP weights, which only arrive with the
    /// first proposal.
    fn ensure_controller(
        &mut self,
        acfg: &AdaptiveConfig,
        config: &EngineConfig,
        ssms: &[&Transformer],
    ) {
        if self.controller.is_none() {
            let flops: Vec<f32> = ssms.iter().map(|s| draft_flop_weight(s.config())).collect();
            self.controller = Some(SpecController::new(
                acfg.clone(),
                config.decode.is_greedy(),
                flops,
            ));
        }
    }

    /// Phase 2: the single LLM forward pass verifying `proposal` —
    /// either one incremental row or a whole linearized tree. This is the
    /// only phase [`crate::BatchedVerifier`] replaces: it fuses the
    /// forwards of many sessions into one stacked pass.
    pub(crate) fn forward_proposal(&mut self, llm: &Transformer, proposal: &Proposal) -> Tensor {
        match &proposal.kind {
            ProposalKind::Incremental => {
                let last = self.last_token();
                let pos = self.llm_cache.len();
                llm.forward_rows(&[last], &[pos], &mut self.llm_cache, Visibility::Causal)
            }
            ProposalKind::Tree(t) => llm.decode_tree(&t.lin, &mut self.llm_cache),
        }
    }

    /// Phase 3: consume the LLM logits for `proposal` — sample or
    /// verify, compact the KV cache to the accepted path, replay the SSM
    /// caches, feed the degradation ladder and record the step.
    pub(crate) fn commit(
        &mut self,
        ssms: &[&Transformer],
        config: &EngineConfig,
        proposal: Proposal,
        logits: &Tensor,
    ) -> StepStats {
        let Proposal {
            kind,
            speculative_mode,
            forced_incremental,
            in_fallback,
            decision,
        } = proposal;
        let stats = match kind {
            ProposalKind::Incremental => self.commit_incremental(config, logits),
            ProposalKind::Tree(t) => {
                let TreeProposal { spec, lin } = *t;
                self.commit_tree(ssms, config, spec, lin, logits)
            }
        };
        self.finish_step(
            speculative_mode,
            forced_incremental,
            in_fallback,
            decision,
            stats,
        )
    }

    /// Commits a tree proposal whose verification already ran *outside*
    /// the session — the hierarchical batched verifier runs the walk
    /// itself across two forward passes. `outcome` is the finished walk's
    /// result, `prefix` the LLM-cache length from before any verify rows
    /// were appended, and `keep` the strictly-increasing positions
    /// (relative to `prefix`) of the root + accepted rows within the
    /// cache's current appended tail, whatever two-pass layout it has.
    pub(crate) fn commit_verified(
        &mut self,
        ssms: &[&Transformer],
        config: &EngineConfig,
        proposal: Proposal,
        outcome: VerifyOutcome,
        prefix: usize,
        keep: Vec<usize>,
    ) -> StepStats {
        let Proposal {
            kind,
            speculative_mode,
            forced_incremental,
            in_fallback,
            decision,
        } = proposal;
        let spec = match kind {
            ProposalKind::Tree(t) => t.spec,
            ProposalKind::Incremental => {
                unreachable!("commit_verified requires a tree proposal")
            }
        };
        let stats = self.apply_tree_outcome(ssms, config, &spec, outcome, prefix, keep);
        self.finish_step(
            speculative_mode,
            forced_incremental,
            in_fallback,
            decision,
            stats,
        )
    }

    /// Shared tail of every commit path: feed the adaptive controller and
    /// the degradation ladder, record the step.
    fn finish_step(
        &mut self,
        speculative_mode: bool,
        forced_incremental: bool,
        in_fallback: bool,
        decision: Option<AdaptiveDecision>,
        stats: StepStats,
    ) -> StepStats {
        let idx = self.steps.len();
        if let (Some(c), Some(d)) = (self.controller.as_mut(), decision.as_ref()) {
            c.observe(d, stats.accepted);
        }
        // Feed the ladder with the acceptance of speculative iterations.
        if self.policy.is_enabled()
            && speculative_mode
            && !forced_incremental
            && !in_fallback
            && stats.tree_size > 0
        {
            self.accept_window
                .push_back(stats.accepted as f64 / stats.tree_size as f64);
            while self.accept_window.len() > self.policy.window {
                self.accept_window.pop_front();
            }
            if self.accept_window.len() == self.policy.window {
                let mean: f64 = self.accept_window.iter().sum::<f64>() / self.policy.window as f64;
                if mean < self.policy.accept_floor {
                    self.degradation.fallbacks_taken += 1;
                    self.fallback_until = Some(idx + 1 + self.policy.cooldown);
                    self.accept_window.clear();
                }
            }
        }
        self.steps.push(stats);
        stats
    }

    /// Whether a speculated tree of up to `worst_nodes` nodes (plus the
    /// root) fits in every cache involved.
    fn speculation_fits(&self, ssms: &[&Transformer], worst_nodes: usize) -> bool {
        let need = worst_nodes + 1;
        if self.llm_cache.len() + need > self.llm_cache.max_len() {
            return false;
        }
        let _ = ssms;
        self.ssm_caches
            .iter()
            .all(|c| c.len() + need <= c.max_len())
    }

    fn commit_incremental(&mut self, config: &EngineConfig, logits: &Tensor) -> StepStats {
        let next = match &config.decode {
            DecodeMode::Greedy => sampler::greedy_token(logits.data()),
            mode => {
                let p = sampler::probs_from_logits(logits.data(), mode);
                sampler::sample_token(&p, &mut self.rng)
            }
        };
        self.tokens.push(next);
        self.check_termination(config, &[next]);
        StepStats {
            tree_size: 0,
            accepted: 0,
            emitted: 1,
        }
    }

    fn propose_speculative(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        expansion: &ExpansionConfig,
        config: &EngineConfig,
        garbage: Option<u64>,
    ) -> ProposalKind {
        assert!(!ssms.is_empty(), "speculative modes need at least one SSM");
        assert_eq!(
            ssms.len(),
            self.ssm_caches.len(),
            "the session was created for a different SSM pool"
        );
        let root = self.last_token();
        let exp_mode = ExpansionMode::for_decode_mode(&config.decode);

        // A garbage-logits fault replaces the whole pool's drafts with
        // uniform draws; the SSMs (and their caches) are not consulted.
        if let Some(seed) = garbage {
            let spec = speculate_garbage(root, expansion, llm.config().vocab_size, seed);
            return ProposalKind::tree(spec);
        }

        // Speculate (§3). A single SSM expands inline on the session's
        // RNG stream; a pool expands data-parallel — one thread, private
        // tree and forked RNG stream per SSM — and the private trees are
        // merged deterministically in pool order.
        let spec = match (ssms, self.ssm_caches.as_mut_slice()) {
            ([ssm], [cache]) => {
                let mut tree = TokenTree::new(root);
                let mut dists = SsmDistTable::new();
                expand_into(
                    &mut tree,
                    &mut dists,
                    ssm,
                    0,
                    cache,
                    expansion,
                    exp_mode,
                    &mut self.rng,
                );
                Speculation { tree, dists }
            }
            _ => {
                let configs: Vec<&ExpansionConfig> = vec![expansion; ssms.len()];
                speculate_pool_parallel(
                    ssms,
                    &mut self.ssm_caches,
                    root,
                    &configs,
                    exp_mode,
                    &mut self.rng,
                )
            }
        };
        ProposalKind::tree(spec)
    }

    fn propose_dynamic(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        dyn_cfg: &crate::dynamic::DynamicExpansionConfig,
        ssm_id: usize,
        garbage: Option<u64>,
    ) -> ProposalKind {
        assert!(
            !ssms.is_empty(),
            "dynamic speculation needs at least one SSM"
        );
        assert_eq!(
            ssms.len(),
            self.ssm_caches.len(),
            "the session was created for a different SSM pool"
        );
        let root = self.last_token();
        if let Some(seed) = garbage {
            // A garbage dynamic tree degenerates to a uniform chain no
            // deeper than the configured budget.
            let depth = dyn_cfg.max_depth.clamp(1, dyn_cfg.max_nodes.max(1));
            let expansion = ExpansionConfig::sequence(depth);
            let spec = speculate_garbage(root, &expansion, llm.config().vocab_size, seed);
            return ProposalKind::tree(spec);
        }
        let (ssm, cache) = match (ssms.get(ssm_id), self.ssm_caches.get_mut(ssm_id)) {
            (Some(&s), Some(c)) => (s, c),
            _ => unreachable!("dynamic speculation routed outside the SSM pool"),
        };
        let spec = crate::dynamic::speculate_dynamic(ssm, cache, root, dyn_cfg, ssm_id);
        ProposalKind::tree(spec)
    }

    /// Verifies a speculation whose tree forward already ran (the rows
    /// sit uncompacted at the tail of the LLM cache), commits the
    /// accepted path to every cache and the token sequence, and returns
    /// the iteration's stats.
    fn commit_tree(
        &mut self,
        ssms: &[&Transformer],
        config: &EngineConfig,
        spec: Speculation,
        lin: LinearizedTree,
        llm_logits: &Tensor,
    ) -> StepStats {
        // The forward appended one cache row per tree node; everything
        // before those rows is the verified prefix to compact onto.
        let prefix = self.llm_cache.len() - lin.len();
        let outcome = match &config.decode {
            DecodeMode::Greedy => verify_greedy(&spec.tree, &lin, llm_logits),
            mode => match config.verifier {
                StochasticVerifier::MultiStep => verify_stochastic(
                    &spec.tree,
                    &lin,
                    llm_logits,
                    &spec.dists,
                    mode,
                    &mut self.rng,
                ),
                StochasticVerifier::Naive => {
                    verify_naive(&spec.tree, &lin, llm_logits, mode, &mut self.rng)
                }
            },
        };
        // Keep the accepted path (root + verified nodes): in single-pass
        // layout the appended tail is the whole linearization.
        let mut keep: Vec<usize> = vec![0];
        keep.extend(outcome.nodes.iter().map(|&u| lin.index_of(u)));
        self.apply_tree_outcome(ssms, config, &spec, outcome, prefix, keep)
    }

    /// Applies a finished tree verification: compacts the LLM cache onto
    /// `keep` (positions relative to `prefix` in the cache's current
    /// appended-tail layout), replays the accepted path into every SSM
    /// cache, extends the token sequence and checks termination.
    fn apply_tree_outcome(
        &mut self,
        ssms: &[&Transformer],
        config: &EngineConfig,
        spec: &Speculation,
        outcome: VerifyOutcome,
        prefix: usize,
        keep: Vec<usize>,
    ) -> StepStats {
        let root = self.last_token();
        self.llm_cache.retain_rows(prefix, &keep);

        // SSM caches saw only the verified prefix; append the root and the
        // newly verified tokens (everything but the bonus) to restore the
        // invariant.
        let accepted = outcome.accepted_speculated();
        let mut replay = Vec::with_capacity(1 + accepted);
        replay.push(root);
        // The verifier emits accepted tokens first, bonus last, so the
        // first `accepted` entries always exist.
        replay.extend_from_slice(outcome.tokens.get(..accepted).unwrap_or(&[]));
        for (ssm, cache) in ssms.iter().zip(self.ssm_caches.iter_mut()) {
            let _ = ssm.prefill(&replay, cache);
        }

        self.tokens.extend_from_slice(&outcome.tokens);
        self.check_termination(config, &outcome.tokens);
        StepStats {
            tree_size: spec.tree.speculated_len(),
            accepted,
            emitted: outcome.tokens.len(),
        }
    }

    /// Drafts one adaptive-mode iteration: the controller-chosen shape,
    /// expanded by the controller-chosen SSM alone on the session's RNG
    /// stream.
    fn propose_adaptive(
        &mut self,
        llm: &Transformer,
        ssms: &[&Transformer],
        decision: &AdaptiveDecision,
        config: &EngineConfig,
        garbage: Option<u64>,
    ) -> ProposalKind {
        assert!(
            !ssms.is_empty(),
            "adaptive speculation needs at least one SSM"
        );
        assert_eq!(
            ssms.len(),
            self.ssm_caches.len(),
            "the session was created for a different SSM pool"
        );
        let root = self.last_token();
        let exp_mode = ExpansionMode::for_decode_mode(&config.decode);

        if let Some(seed) = garbage {
            // Garbage faults replace the draft with uniform draws in an
            // equivalent static shape; the controller still observes the
            // (collapsed) acceptance and parks itself.
            let expansion = match &decision.shape {
                DraftShape::Incremental => {
                    unreachable!("incremental decisions never reach propose_adaptive")
                }
                DraftShape::Sequence(m) => ExpansionConfig::sequence(*m),
                DraftShape::Dynamic(c) => {
                    let depth = c.max_depth.clamp(1, c.max_nodes.max(1));
                    ExpansionConfig::sequence(depth)
                }
                DraftShape::Tree(e) => e.clone(),
            };
            let spec = speculate_garbage(root, &expansion, llm.config().vocab_size, seed);
            return ProposalKind::tree(spec);
        }

        let (ssm, cache) = match (
            ssms.get(decision.ssm),
            self.ssm_caches.get_mut(decision.ssm),
        ) {
            (Some(&s), Some(c)) => (s, c),
            _ => unreachable!("controller routes within the SSM pool"),
        };
        let spec = match &decision.shape {
            DraftShape::Incremental => {
                unreachable!("incremental decisions never reach propose_adaptive")
            }
            DraftShape::Sequence(m) => {
                let expansion = ExpansionConfig::sequence(*m);
                let mut tree = TokenTree::new(root);
                let mut dists = SsmDistTable::new();
                expand_into(
                    &mut tree,
                    &mut dists,
                    ssm,
                    decision.ssm,
                    cache,
                    &expansion,
                    exp_mode,
                    &mut self.rng,
                );
                Speculation { tree, dists }
            }
            DraftShape::Tree(expansion) => {
                let mut tree = TokenTree::new(root);
                let mut dists = SsmDistTable::new();
                expand_into(
                    &mut tree,
                    &mut dists,
                    ssm,
                    decision.ssm,
                    cache,
                    expansion,
                    exp_mode,
                    &mut self.rng,
                );
                Speculation { tree, dists }
            }
            DraftShape::Dynamic(dyn_cfg) => {
                crate::dynamic::speculate_dynamic(ssm, cache, root, dyn_cfg, decision.ssm)
            }
        };
        ProposalKind::tree(spec)
    }

    fn check_termination(&mut self, config: &EngineConfig, new_tokens: &[TokenId]) {
        if let Some(eos) = config.eos_token {
            if let Some(rel) = new_tokens.iter().position(|&t| t == eos) {
                // Truncate right after the EOS token.
                let cut = self.tokens.len() - new_tokens.len() + rel + 1;
                self.tokens.truncate(cut);
                self.finished = true;
                return;
            }
        }
        if self.tokens.len() - self.prompt_len >= config.max_new_tokens {
            self.finished = true;
        }
    }

    /// Consumes the session into a [`GenerationResult`].
    pub fn into_result(self) -> GenerationResult {
        GenerationResult {
            tokens: self.tokens,
            prompt_len: self.prompt_len,
            steps: self.steps,
        }
    }
}

/// Convenience wrapper running whole generations: models + configuration.
///
/// # Example
///
/// ```
/// use specinfer_model::{ModelConfig, Transformer, DecodeMode};
/// use specinfer_spec::{EngineConfig, InferenceMode, SpecEngine, StochasticVerifier};
/// use specinfer_tokentree::ExpansionConfig;
///
/// let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
/// let ssm = Transformer::from_seed(ModelConfig::smoke(), 2);
/// let config = EngineConfig {
///     decode: DecodeMode::Greedy,
///     verifier: StochasticVerifier::MultiStep,
///     mode: InferenceMode::TreeSpeculative { expansion: ExpansionConfig::new(vec![2, 2, 1]) },
///     max_new_tokens: 16,
///     eos_token: None,
/// };
/// let engine = SpecEngine::new(&llm, vec![&ssm], config);
/// let result = engine.generate(&[3, 1, 4], 7);
/// assert!(result.generated().len() >= 16);
/// ```
#[derive(Debug)]
pub struct SpecEngine<'m> {
    llm: &'m Transformer,
    ssms: Vec<&'m Transformer>,
    config: EngineConfig,
}

impl<'m> SpecEngine<'m> {
    /// Creates an engine over an LLM, a pool of SSMs and a configuration.
    pub fn new(llm: &'m Transformer, ssms: Vec<&'m Transformer>, config: EngineConfig) -> Self {
        SpecEngine { llm, ssms, config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs a full generation for `prompt`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid request (see [`Session::new`]); serving
    /// paths use [`SpecEngine::try_generate`].
    pub fn generate(&self, prompt: &[TokenId], seed: u64) -> GenerationResult {
        let mut session = Session::new(self.llm, &self.ssms, prompt, seed);
        while !session.is_finished() {
            let _ = session.step(self.llm, &self.ssms, &self.config);
        }
        session.into_result()
    }

    /// Fallible [`SpecEngine::generate`]: a bad request comes back as an
    /// [`EngineError`] instead of panicking.
    pub fn try_generate(
        &self,
        prompt: &[TokenId],
        seed: u64,
    ) -> Result<GenerationResult, EngineError> {
        let mut session = Session::try_new(self.llm, &self.ssms, prompt, seed)?;
        while !session.is_finished() {
            let _ = session.step(self.llm, &self.ssms, &self.config);
        }
        Ok(session.into_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_model::ModelConfig;

    fn models() -> (Transformer, Transformer) {
        // SSM = the LLM's own little sibling (same seed family) so greedy
        // speculation has nontrivial accept rates even untrained.
        let llm = Transformer::from_seed(ModelConfig::smoke(), 100);
        let ssm = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            101,
        );
        (llm, ssm)
    }

    fn config(mode: InferenceMode, decode: DecodeMode) -> EngineConfig {
        EngineConfig {
            decode,
            verifier: StochasticVerifier::MultiStep,
            mode,
            max_new_tokens: 24,
            eos_token: None,
        }
    }

    #[test]
    fn incremental_generates_budgeted_tokens() {
        let (llm, _) = models();
        let engine = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        );
        let r = engine.generate(&[1, 2, 3], 0);
        assert_eq!(r.generated().len(), 24);
        assert_eq!(r.llm_steps(), 24);
        assert!((r.tokens_per_step() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_tree_spec_matches_incremental_exactly() {
        let (llm, ssm) = models();
        let inc = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        )
        .generate(&[5, 9, 2], 0);
        let tree = SpecEngine::new(
            &llm,
            vec![&ssm],
            config(
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 2, 1, 1]),
                },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[5, 9, 2], 0);
        // Lossless guarantee: identical output, fewer LLM steps.
        let n = inc.generated().len().min(tree.generated().len());
        assert_eq!(&inc.generated()[..n], &tree.generated()[..n]);
        assert!(tree.llm_steps() <= inc.llm_steps());
    }

    #[test]
    fn sequence_spec_is_tree_of_width_one() {
        let (llm, ssm) = models();
        let r = SpecEngine::new(
            &llm,
            vec![&ssm],
            config(
                InferenceMode::SequenceSpeculative { depth: 4 },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[7, 7, 7], 1);
        for s in &r.steps {
            assert!(s.tree_size <= 4);
            assert_eq!(s.emitted, s.accepted + 1);
        }
    }

    #[test]
    fn self_speculation_accepts_everything_greedy() {
        // When the SSM *is* the LLM, greedy speculation of a chain must be
        // accepted in full every step: emitted = depth + 1.
        let (llm, _) = models();
        let depth = 4;
        let r = SpecEngine::new(
            &llm,
            vec![&llm],
            config(
                InferenceMode::SequenceSpeculative { depth },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[2, 3], 0);
        for s in &r.steps {
            assert_eq!(s.accepted, depth, "self-speculation must fully verify");
            assert_eq!(s.emitted, depth + 1);
        }
    }

    #[test]
    fn stochastic_modes_produce_budgeted_output() {
        let (llm, ssm) = models();
        for verifier in [StochasticVerifier::MultiStep, StochasticVerifier::Naive] {
            let mut cfg = config(
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1, 1]),
                },
                DecodeMode::stochastic(),
            );
            cfg.verifier = verifier;
            let r = SpecEngine::new(&llm, vec![&ssm], cfg).generate(&[4, 4], 3);
            assert!(r.generated().len() >= 24);
            for s in &r.steps {
                assert_eq!(s.emitted, s.accepted + 1);
            }
        }
    }

    #[test]
    fn eos_terminates_and_truncates() {
        let (llm, ssm) = models();
        // Find the greedy continuation and use its second token as EOS so
        // termination happens mid-stream.
        let probe = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        )
        .generate(&[6, 1, 6], 0);
        let eos = probe.generated()[1];
        let mut cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1, 1]),
            },
            DecodeMode::Greedy,
        );
        cfg.eos_token = Some(eos);
        let r = SpecEngine::new(&llm, vec![&ssm], cfg).generate(&[6, 1, 6], 0);
        assert_eq!(*r.tokens.last().unwrap(), eos);
        assert_eq!(r.generated().len(), 2, "output must stop right after EOS");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2]),
            },
            DecodeMode::stochastic(),
        );
        let engine = SpecEngine::new(&llm, vec![&ssm], cfg);
        let a = engine.generate(&[8, 3], 42);
        let b = engine.generate(&[8, 3], 42);
        assert_eq!(a.tokens, b.tokens);
        let c = engine.generate(&[8, 3], 43);
        assert_ne!(a.tokens, c.tokens, "different seeds should diverge");
    }

    #[test]
    fn session_stops_stepping_after_finish() {
        let (llm, _) = models();
        let cfg = config(InferenceMode::Incremental, DecodeMode::Greedy);
        let mut s = Session::new(&llm, &[], &[1], 0);
        for _ in 0..24 {
            assert!(s.step(&llm, &[], &cfg).is_some());
        }
        assert!(s.is_finished());
        assert!(s.step(&llm, &[], &cfg).is_none());
    }

    #[test]
    fn context_exhaustion_degrades_then_finishes() {
        // A model with a tiny context window: the engine must fall back
        // to incremental steps near the limit and stop cleanly at it,
        // never panicking on cache overflow.
        let cfg_model = ModelConfig {
            max_seq_len: 18,
            ..ModelConfig::smoke()
        };
        let llm = Transformer::from_seed(cfg_model.clone(), 300);
        let ssm = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..cfg_model
            },
            301,
        );
        let mut cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            DecodeMode::Greedy,
        );
        cfg.max_new_tokens = 100; // far beyond the context window
        let r = SpecEngine::new(&llm, vec![&ssm], cfg).generate(&[1, 2, 3], 0);
        // Sequence length (prompt + generated) never exceeds max_seq_len
        // by more than the final bonus token that is never cached.
        assert!(r.tokens.len() <= 18 + 1, "{} tokens", r.tokens.len());
        assert!(!r.generated().is_empty());
    }

    #[test]
    fn dynamic_tree_is_lossless_under_greedy() {
        let (llm, ssm) = models();
        let inc = SpecEngine::new(
            &llm,
            vec![],
            config(InferenceMode::Incremental, DecodeMode::Greedy),
        )
        .generate(&[3, 8, 1], 0);
        let dynamic = SpecEngine::new(
            &llm,
            vec![&ssm],
            config(
                InferenceMode::DynamicTree {
                    config: crate::dynamic::DynamicExpansionConfig::default(),
                },
                DecodeMode::Greedy,
            ),
        )
        .generate(&[3, 8, 1], 0);
        let n = inc.generated().len().min(dynamic.generated().len());
        assert_eq!(&inc.generated()[..n], &dynamic.generated()[..n]);
        assert!(dynamic.llm_steps() <= inc.llm_steps());
        assert!(dynamic.steps.iter().all(|s| s.tree_size <= 20));
    }

    #[test]
    fn garbage_ssm_fault_is_lossless_under_greedy() {
        // With garbage SSM logits injected on every step, greedy
        // verification rejects the junk drafts and the output must be
        // bit-identical to a fault-free run.
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2, 1]),
            },
            DecodeMode::Greedy,
        );
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[5, 9, 2], 0);

        let mut s = Session::new(&llm, &[&ssm], &[5, 9, 2], 0);
        let mut step = 0u64;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_garbage: Some(0xfa017 ^ step),
                ..StepFault::default()
            };
            let _ = s.step_faulted(&llm, &[&ssm], &cfg, fault);
            step += 1;
        }
        assert!(s.degradation().faulted_steps > 0);
        let faulted = s.into_result();
        assert_eq!(clean.tokens, faulted.tokens);
    }

    #[test]
    fn stall_and_oom_force_incremental_steps() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1]),
            },
            DecodeMode::Greedy,
        );
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[7, 3], 0);

        let mut s = Session::new(&llm, &[&ssm], &[7, 3], 0);
        let mut i = 0usize;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_stall: i.is_multiple_of(2),
                kv_oom: i % 2 == 1,
                ..StepFault::default()
            };
            let stats = s.step_faulted(&llm, &[&ssm], &cfg, fault).unwrap();
            assert_eq!(stats.tree_size, 0, "faulted step must not speculate");
            assert_eq!(stats.emitted, 1);
            i += 1;
        }
        let d = s.degradation();
        assert_eq!(d.forced_incremental, i);
        assert_eq!(d.faulted_steps, i);
        // Forced-incremental greedy decoding is still lossless.
        assert_eq!(s.into_result().tokens, clean.tokens);
    }

    #[test]
    fn acceptance_collapse_falls_back_and_reprobes() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 2]),
            },
            DecodeMode::Greedy,
        );
        let mut cfg = cfg;
        cfg.max_new_tokens = 40;
        let clean = SpecEngine::new(&llm, vec![&ssm], cfg.clone()).generate(&[4, 8], 0);

        let mut s = Session::new(&llm, &[&ssm], &[4, 8], 0);
        s.set_degradation_policy(DegradationPolicy {
            accept_floor: 0.5,
            window: 2,
            cooldown: 3,
        });
        let mut step = 0u64;
        while !s.is_finished() {
            // Garbage on every probe ⇒ acceptance collapses ⇒ the ladder
            // must fall back, cool down, re-probe, and collapse again.
            let fault = StepFault {
                ssm_garbage: Some(step),
                ..StepFault::default()
            };
            let stats = s.step_faulted(&llm, &[&ssm], &cfg, fault).unwrap();
            if s.in_fallback() {
                assert!(stats.emitted >= 1);
            }
            step += 1;
        }
        let d = s.degradation();
        assert!(d.fallbacks_taken >= 1, "{d:?}");
        // Every fallback serves its cooldown incrementally (the last one
        // may be cut short by the generation budget).
        assert!(d.fallback_steps >= (d.fallbacks_taken - 1) * 3, "{d:?}");
        assert!(d.reprobes >= 1, "{d:?}");
        assert_eq!(s.into_result().tokens, clean.tokens, "fallback is lossless");
    }

    #[test]
    fn disabled_ladder_never_falls_back() {
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1]),
            },
            DecodeMode::Greedy,
        );
        let mut s = Session::new(&llm, &[&ssm], &[1, 2], 0);
        let mut step = 0u64;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_garbage: Some(step),
                ..StepFault::default()
            };
            let _ = s.step_faulted(&llm, &[&ssm], &cfg, fault);
            step += 1;
        }
        let d = s.degradation();
        assert_eq!(d.fallbacks_taken, 0);
        assert_eq!(d.fallback_steps, 0);
    }

    #[test]
    fn garbage_fault_preserves_stochastic_budget() {
        // Under stochastic decoding garbage drafts flow through the MSS
        // residual path; generation still completes its budget and every
        // step emits accepted + 1 tokens.
        let (llm, ssm) = models();
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![2, 1]),
            },
            DecodeMode::stochastic(),
        );
        let mut s = Session::new(&llm, &[&ssm], &[6, 6], 9);
        let mut step = 0u64;
        while !s.is_finished() {
            let fault = StepFault {
                ssm_garbage: Some(step),
                ..StepFault::default()
            };
            let stats = s.step_faulted(&llm, &[&ssm], &cfg, fault).unwrap();
            assert_eq!(stats.emitted, stats.accepted + 1);
            step += 1;
        }
        assert!(s.generated().len() >= 24);
    }

    #[test]
    fn multi_ssm_sessions_track_their_pool() {
        let (llm, ssm) = models();
        let ssm2 = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            202,
        );
        let cfg = config(
            InferenceMode::TreeSpeculative {
                expansion: ExpansionConfig::new(vec![1, 1, 1]),
            },
            DecodeMode::Greedy,
        );
        let r = SpecEngine::new(&llm, vec![&ssm, &ssm2], cfg).generate(&[9, 9], 5);
        assert!(r.generated().len() >= 24);
        // Merged speculation from two distinct SSMs yields trees of up to
        // 6 nodes (two depth-3 chains).
        assert!(r.steps.iter().all(|s| s.tree_size <= 6));
    }
}
