//! The learning-based speculator (§3): expansion-based and merge-based
//! token tree construction from one or more SSMs.

use std::collections::HashMap;

use specinfer_model::{sampler, DecodeMode, KvCache, Transformer, Visibility};
use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::{ExpansionConfig, NodeId, TokenId, TokenTree};

/// Full SSM probability distributions recorded during speculation.
///
/// Multi-step speculative sampling needs, for every expanded node `u` and
/// every SSM `s` that proposed children of `u`, the complete distribution
/// `P(·|S_u, Θ_SSM_s)` — both to compute acceptance ratios and to form the
/// residual distribution on rejection (Algorithm 2, line 37).
#[derive(Debug, Clone, Default)]
pub struct SsmDistTable {
    dists: HashMap<(usize, usize), Vec<f32>>,
}

impl SsmDistTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records SSM `ssm_id`'s distribution at node `u`.
    pub fn insert(&mut self, u: NodeId, ssm_id: usize, dist: Vec<f32>) {
        self.dists.insert((u.index(), ssm_id), dist);
    }

    /// The distribution SSM `ssm_id` used at node `u`, if recorded.
    pub fn get(&self, u: NodeId, ssm_id: usize) -> Option<&[f32]> {
        self.dists.get(&(u.index(), ssm_id)).map(Vec::as_slice)
    }

    /// Number of recorded (node, SSM) distributions.
    pub fn len(&self) -> usize {
        self.dists.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.dists.is_empty()
    }
}

/// A speculated token tree plus the SSM distributions behind it.
#[derive(Debug, Clone)]
pub struct Speculation {
    /// The token tree (root = last verified token).
    pub tree: TokenTree,
    /// Per-(node, SSM) proposal distributions.
    pub dists: SsmDistTable,
}

/// How the speculator expands children at each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpansionMode {
    /// Take the SSM's top-k tokens (used with greedy LLM verification;
    /// this is the paper's Table 1 "top-k from the SSM" construction).
    TopK,
    /// Draw k i.i.d. samples from the SSM's distribution (used with
    /// stochastic verification; multi-step speculative sampling's
    /// correctness requires candidates *sampled* from their proposal
    /// distributions, and duplicates remain distinct draft nodes).
    ///
    /// At steps wider than one, drafts are drawn from a mildly
    /// *flattened* copy of the SSM distribution (temperature
    /// [`DRAFT_FLATTEN_TEMPERATURE`]): peaked proposals would make
    /// i.i.d. drafts collide, wasting the extra width. The flattened
    /// distribution is what gets recorded as the proposal, so MSS's
    /// guarantee (which holds for *any* i.i.d. proposal whose density the
    /// verifier knows) is untouched — the Theorem 4.2 tests cover
    /// exactly this.
    Sampled,
}

/// Proposal-flattening temperature used by [`ExpansionMode::Sampled`] at
/// steps with width > 1.
pub const DRAFT_FLATTEN_TEMPERATURE: f32 = 1.6;

fn flatten(q: &[f32], temperature: f32) -> Vec<f32> {
    let inv = 1.0 / temperature;
    let mut out: Vec<f32> = q
        .iter()
        .map(|&p| if p > 0.0 { p.powf(inv) } else { 0.0 })
        .collect();
    let total: f32 = out.iter().sum();
    if total > 0.0 {
        for v in &mut out {
            *v /= total;
        }
    }
    out
}

impl ExpansionMode {
    /// The expansion mode matching an LLM decode mode.
    pub fn for_decode_mode(mode: &DecodeMode) -> Self {
        if mode.is_greedy() {
            ExpansionMode::TopK
        } else {
            ExpansionMode::Sampled
        }
    }
}

/// Expands speculated tokens from `ssm` into `tree`, following
/// `config` = ⟨k₁…k_m⟩, starting from the tree's root (the last verified
/// token).
///
/// `cache` must hold exactly the verified prefix (all tokens of the
/// sequence *except* the root token); it is restored to that state before
/// returning. Newly created nodes record `ssm_id` and the SSM's
/// probability for their token; full distributions are added to `dists`.
///
/// When `tree` already contains nodes (merge-based speculation with
/// multiple SSMs), identical candidate sequences are deduplicated per
/// Definition 3.2, keeping the first proposer's metadata.
///
/// # Panics
///
/// Panics if the cache/SSM dimensions disagree or the cache would
/// overflow.
#[allow(clippy::too_many_arguments)] // speculation state is inherently wide: tree + dists + model + cache + schedule
pub fn expand_into(
    tree: &mut TokenTree,
    dists: &mut SsmDistTable,
    ssm: &Transformer,
    ssm_id: usize,
    cache: &mut KvCache,
    config: &ExpansionConfig,
    mode: ExpansionMode,
    rng: &mut SeededRng,
) {
    let prefix = cache.len();
    let root_pos = prefix;

    // Cache row of each tree node this SSM has processed, plus the set of
    // ancestor cache rows (for the custom visibility mask).
    let mut node_row: HashMap<usize, usize> = HashMap::new();
    let mut ancestor_rows: HashMap<usize, Vec<usize>> = HashMap::new();

    // Level 0: feed the root token itself.
    let root = TokenTree::ROOT;
    let root_logits = ssm.forward_rows(&[tree.token(root)], &[root_pos], cache, Visibility::Causal);
    node_row.insert(root.index(), prefix);
    ancestor_rows.insert(root.index(), vec![prefix]);

    let vocab = ssm.config().vocab_size;
    let mut frontier: Vec<(NodeId, Vec<f32>)> =
        vec![(root, root_logits.reshape(&[vocab]).into_vec())];

    for step in 0..config.depth() {
        let k = config.width(step);
        // Expand every frontier node by k children.
        let mut new_nodes: Vec<NodeId> = Vec::new();
        for (u, logits) in &frontier {
            let base_q = sampler::probs_from_logits(logits, &DecodeMode::stochastic());
            // The recorded proposal must be the distribution the drafts
            // were actually drawn from (see `ExpansionMode::Sampled`).
            let q = match mode {
                ExpansionMode::Sampled if k > 1 => flatten(&base_q, DRAFT_FLATTEN_TEMPERATURE),
                _ => base_q,
            };
            dists.insert(*u, ssm_id, q.clone());
            let children: Vec<TokenId> = match mode {
                ExpansionMode::TopK => specinfer_tensor::ops::topk(&q, k)
                    .into_iter()
                    .filter(|&(_, p)| p > 0.0)
                    .map(|(t, _)| t as TokenId)
                    .collect(),
                ExpansionMode::Sampled => (0..k).map(|_| sampler::sample_token(&q, rng)).collect(),
            };
            for tok in children {
                // Children are drawn from q, so the lookup only misses if
                // the SSM emitted an out-of-vocab token — record zero.
                let prob = q.get(tok as usize).copied().unwrap_or(0.0);
                let child = match mode {
                    // Top-k children are distinct by construction, but the
                    // tree may already contain the sequence from another
                    // SSM — dedup per Definition 3.2.
                    ExpansionMode::TopK => match tree.child_with_token(*u, tok) {
                        Some(existing) => existing,
                        None => tree.add_child(*u, tok, ssm_id, prob),
                    },
                    // Sampled drafts stay distinct even on collision; the
                    // MSS proof treats each draw as its own candidate.
                    ExpansionMode::Sampled => tree.add_child(*u, tok, ssm_id, prob),
                };
                if !node_row.contains_key(&child.index()) {
                    new_nodes.push(child);
                }
            }
        }
        if new_nodes.is_empty() {
            break;
        }

        // Batch-decode the whole new level in one SSM pass: each new node
        // attends to the verified prefix plus its own ancestor rows.
        let tokens: Vec<TokenId> = new_nodes.iter().map(|&u| tree.token(u)).collect();
        let positions: Vec<usize> = new_nodes
            .iter()
            .map(|&u| root_pos + tree.depth(u))
            .collect();
        let base = cache.len();
        for (i, u) in new_nodes.iter().enumerate() {
            let parent = match tree.parent(*u) {
                Some(p) => p,
                // Every expanded node was created via add_child above.
                None => unreachable!("expanded node must have a parent"),
            };
            let mut rows = match ancestor_rows.get(&parent.index()) {
                Some(r) => r.clone(),
                None => unreachable!("parent rows recorded before children expand"),
            };
            rows.push(base + i);
            node_row.insert(u.index(), base + i);
            ancestor_rows.insert(u.index(), rows);
        }
        let visible = |i: usize, j: usize| -> bool {
            if j < prefix {
                return true;
            }
            new_nodes
                .get(i)
                .and_then(|u| ancestor_rows.get(&u.index()))
                .is_some_and(|rows| rows.contains(&j))
        };
        let logits = ssm.forward_rows(&tokens, &positions, cache, Visibility::Custom(&visible));

        frontier = new_nodes
            .into_iter()
            .enumerate()
            .map(|(i, u)| (u, logits.row(i).to_vec()))
            .collect();
    }

    // Record the distributions of the final frontier too (the verifier may
    // sample a bonus token below a leaf; it uses the LLM there, but the
    // table keeps speculation introspectable).
    for (u, logits) in &frontier {
        if dists.get(*u, ssm_id).is_none() {
            let q = sampler::probs_from_logits(logits, &DecodeMode::stochastic());
            dists.insert(*u, ssm_id, q);
        }
    }

    cache.truncate(prefix);
}

/// Expansion-based speculation from a single SSM (§3, "expansion-based
/// token tree construction").
pub fn speculate_expansion(
    ssm: &Transformer,
    cache: &mut KvCache,
    root_token: TokenId,
    config: &ExpansionConfig,
    mode: ExpansionMode,
    rng: &mut SeededRng,
) -> Speculation {
    let mut tree = TokenTree::new(root_token);
    let mut dists = SsmDistTable::new();
    expand_into(&mut tree, &mut dists, ssm, 0, cache, config, mode, rng);
    Speculation { tree, dists }
}

/// Fault-injected speculation: the tree an SSM with *garbage logits*
/// would produce — tokens drawn uniformly from the vocabulary, following
/// the shape of `config`, without ever running the SSM.
///
/// The recorded proposal distribution is the uniform distribution the
/// drafts are actually drawn from, so multi-step speculative sampling's
/// distribution guarantee (Theorem 4.2 holds for *any* proposal whose
/// density the verifier knows) survives the fault: a garbage SSM costs
/// acceptance rate, never correctness. Under greedy verification the
/// drafts are simply rejected and the output is bit-identical to a
/// fault-free run. Drafts come from a dedicated RNG seeded by `seed` so
/// the session's own RNG stream is untouched — chaos runs stay
/// replayable and fault-free-equivalent.
pub fn speculate_garbage(
    root_token: TokenId,
    config: &ExpansionConfig,
    vocab: usize,
    seed: u64,
) -> Speculation {
    let mut rng = SeededRng::new(seed);
    let mut tree = TokenTree::new(root_token);
    let mut dists = SsmDistTable::new();
    let uniform_p = 1.0 / vocab as f32;
    let uniform = vec![uniform_p; vocab];
    let mut frontier = vec![TokenTree::ROOT];
    for step in 0..config.depth() {
        let k = config.width(step);
        let mut next: Vec<NodeId> = Vec::new();
        for &u in &frontier {
            if dists.get(u, 0).is_none() {
                dists.insert(u, 0, uniform.clone());
            }
            for _ in 0..k {
                let tok = rng.below(vocab) as TokenId;
                // Uniform draws may collide; dedup like top-k expansion.
                let child = match tree.child_with_token(u, tok) {
                    Some(existing) => existing,
                    None => tree.add_child(u, tok, 0, uniform_p),
                };
                if !next.contains(&child) {
                    next.push(child);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    for &u in &frontier {
        if dists.get(u, 0).is_none() {
            dists.insert(u, 0, uniform.clone());
        }
    }
    Speculation { tree, dists }
}

/// Merge-based speculation from a pool of SSMs (§3, "merge-based token
/// tree construction"): every SSM speculates with its own configuration
/// and the candidate sets are merged (Definition 3.2) into one tree.
///
/// `caches[i]` is SSM `i`'s cache (verified prefix only); all are restored
/// before returning.
///
/// # Panics
///
/// Panics if the numbers of SSMs, caches and configurations disagree, or
/// if no SSM is provided.
pub fn speculate_merged(
    ssms: &[&Transformer],
    caches: &mut [KvCache],
    root_token: TokenId,
    configs: &[ExpansionConfig],
    mode: ExpansionMode,
    rng: &mut SeededRng,
) -> Speculation {
    assert!(
        !ssms.is_empty(),
        "merge-based speculation needs at least one SSM"
    );
    assert_eq!(ssms.len(), caches.len(), "one cache per SSM required");
    assert_eq!(
        ssms.len(),
        configs.len(),
        "one expansion config per SSM required"
    );
    let mut tree = TokenTree::new(root_token);
    let mut dists = SsmDistTable::new();
    for (i, ssm) in ssms.iter().enumerate() {
        expand_into(
            &mut tree,
            &mut dists,
            ssm,
            i,
            &mut caches[i],
            &configs[i],
            mode,
            rng,
        );
    }
    Speculation { tree, dists }
}

/// Grafts a privately speculated tree onto `tree` per Definition 3.2:
/// nodes are walked in arena order (parents first) and either matched
/// against an existing child carrying the same token (TopK — merged
/// candidate sets keep the first proposer's metadata) or appended as new
/// nodes (Sampled — i.i.d. drafts stay distinct even on collision).
/// `part_dists` entries are re-keyed onto the merged node ids.
fn graft_into(
    tree: &mut TokenTree,
    dists: &mut SsmDistTable,
    part: &TokenTree,
    part_dists: &SsmDistTable,
    ssm_id: usize,
    mode: ExpansionMode,
) {
    let mut map: Vec<NodeId> = Vec::with_capacity(part.len());
    for u in part.node_ids() {
        let mu = match part.parent(u) {
            None => TokenTree::ROOT,
            Some(p) => {
                let mp = match map.get(p.index()) {
                    Some(&m) => m,
                    // Arena order visits parents before children.
                    None => unreachable!("parent must be mapped before its child"),
                };
                let tok = part.token(u);
                match mode {
                    ExpansionMode::TopK => match tree.child_with_token(mp, tok) {
                        Some(existing) => existing,
                        None => tree.add_child(mp, tok, part.ssm_id(u), part.ssm_prob(u)),
                    },
                    ExpansionMode::Sampled => {
                        tree.add_child(mp, tok, part.ssm_id(u), part.ssm_prob(u))
                    }
                }
            }
        };
        map.push(mu);
        if let Some(q) = part_dists.get(u, ssm_id) {
            if dists.get(mu, ssm_id).is_none() {
                dists.insert(mu, ssm_id, q.to_vec());
            }
        }
    }
}

/// Data-parallel merge-based speculation: every SSM of the pool expands
/// into a *private* tree as its own worker-pool chunk — each SSM already
/// owns a private KV cache, so the expansions share nothing mutable —
/// and the private trees are then merged in pool order (Definition 3.2).
///
/// One RNG stream per SSM is forked from `rng` up front, in pool order,
/// so the result is identical whether the pool runs on one thread or
/// many. Under [`ExpansionMode::TopK`] no randomness is consumed and the
/// merged tree is exactly the one [`speculate_merged`] builds
/// sequentially.
///
/// # Panics
///
/// Panics if the numbers of SSMs, caches and configurations disagree, or
/// if no SSM is provided.
pub fn speculate_pool_parallel(
    ssms: &[&Transformer],
    caches: &mut [KvCache],
    root_token: TokenId,
    configs: &[&ExpansionConfig],
    mode: ExpansionMode,
    rng: &mut SeededRng,
) -> Speculation {
    assert!(!ssms.is_empty(), "pool speculation needs at least one SSM");
    assert_eq!(ssms.len(), caches.len(), "one cache per SSM required");
    assert_eq!(
        ssms.len(),
        configs.len(),
        "one expansion config per SSM required"
    );
    // Fork the per-SSM streams before any threading decision so the
    // draws cannot depend on the thread count.
    let mut rngs: Vec<SeededRng> = (0..ssms.len()).map(|i| rng.fork(i as u64)).collect();
    let mut parts: Vec<_> = ssms
        .iter()
        .zip(caches.iter_mut())
        .zip(rngs.iter_mut())
        .zip(configs)
        .map(|(((&ssm, cache), prng), &config)| (ssm, cache, prng, config, None))
        .collect();
    specinfer_tensor::pool::for_each_mut(&mut parts, |i, (ssm, cache, prng, config, slot)| {
        let mut tree = TokenTree::new(root_token);
        let mut dists = SsmDistTable::new();
        expand_into(&mut tree, &mut dists, ssm, i, cache, config, mode, prng);
        *slot = Some((tree, dists));
    });
    // Deterministic pool-order merge.
    let mut tree = TokenTree::new(root_token);
    let mut dists = SsmDistTable::new();
    for (i, (.., part)) in parts.into_iter().enumerate() {
        let Some((ptree, pdists)) = part else {
            unreachable!("the pool runs every SSM's expansion before returning")
        };
        graft_into(&mut tree, &mut dists, &ptree, &pdists, i, mode);
    }
    Speculation { tree, dists }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_model::ModelConfig;

    fn ssm() -> Transformer {
        Transformer::from_seed(ModelConfig::smoke(), 3)
    }

    #[test]
    fn expansion_produces_configured_shape() {
        let m = ssm();
        let mut cache = m.new_cache();
        let _ = m.prefill(&[1, 2], &mut cache);
        let mut rng = SeededRng::new(1);
        let cfg = ExpansionConfig::new(vec![2, 2, 1]);
        let spec = speculate_expansion(&m, &mut cache, 3, &cfg, ExpansionMode::TopK, &mut rng);
        assert_eq!(spec.tree.speculated_len(), cfg.node_count());
        assert_eq!(spec.tree.max_depth(), 3);
        assert_eq!(spec.tree.children(TokenTree::ROOT).len(), 2);
        // Cache restored to the verified prefix.
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn topk_children_are_distinct_and_ordered_by_prob() {
        let m = ssm();
        let mut cache = m.new_cache();
        let _ = m.prefill(&[5], &mut cache);
        let mut rng = SeededRng::new(2);
        let cfg = ExpansionConfig::new(vec![4]);
        let spec = speculate_expansion(&m, &mut cache, 1, &cfg, ExpansionMode::TopK, &mut rng);
        let kids = spec.tree.children(TokenTree::ROOT);
        assert_eq!(kids.len(), 4);
        let tokens: std::collections::HashSet<_> =
            kids.iter().map(|&c| spec.tree.token(c)).collect();
        assert_eq!(tokens.len(), 4, "top-k children must be distinct");
        for w in kids.windows(2) {
            assert!(spec.tree.ssm_prob(w[0]) >= spec.tree.ssm_prob(w[1]));
        }
    }

    #[test]
    fn node_probs_match_recorded_distributions() {
        let m = ssm();
        let mut cache = m.new_cache();
        let _ = m.prefill(&[2, 4], &mut cache);
        let mut rng = SeededRng::new(3);
        let cfg = ExpansionConfig::new(vec![2, 2]);
        let spec = speculate_expansion(&m, &mut cache, 7, &cfg, ExpansionMode::TopK, &mut rng);
        for u in spec.tree.node_ids() {
            if u == TokenTree::ROOT {
                continue;
            }
            let parent = spec.tree.parent(u).unwrap();
            let q = spec
                .dists
                .get(parent, 0)
                .expect("parent distribution recorded");
            let tok = spec.tree.token(u) as usize;
            assert!((q[tok] - spec.tree.ssm_prob(u)).abs() < 1e-6);
        }
    }

    #[test]
    fn speculation_is_deterministic_given_seed() {
        let m = ssm();
        let cfg = ExpansionConfig::new(vec![2, 1, 1]);
        let run = |seed| {
            let mut cache = m.new_cache();
            let _ = m.prefill(&[1, 2, 3], &mut cache);
            let mut rng = SeededRng::new(seed);
            speculate_expansion(&m, &mut cache, 9, &cfg, ExpansionMode::Sampled, &mut rng)
                .tree
                .all_sequences()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn sampled_mode_may_keep_duplicate_drafts() {
        // With a peaked distribution, iid draws collide; both drafts must
        // remain (distinct nodes, same token).
        let m = ssm();
        let mut cache = m.new_cache();
        let _ = m.prefill(&[1], &mut cache);
        let mut rng = SeededRng::new(11);
        let cfg = ExpansionConfig::new(vec![6]);
        let spec = speculate_expansion(&m, &mut cache, 2, &cfg, ExpansionMode::Sampled, &mut rng);
        assert_eq!(spec.tree.children(TokenTree::ROOT).len(), 6);
    }

    #[test]
    fn merge_combines_multiple_ssms() {
        let m1 = Transformer::from_seed(ModelConfig::smoke(), 10);
        let m2 = Transformer::from_seed(ModelConfig::smoke(), 20);
        let mut c1 = m1.new_cache();
        let mut c2 = m2.new_cache();
        let _ = m1.prefill(&[1, 2], &mut c1);
        let _ = m2.prefill(&[1, 2], &mut c2);
        let mut rng = SeededRng::new(4);
        let cfg = ExpansionConfig::sequence(3);
        let spec = speculate_merged(
            &[&m1, &m2],
            &mut [c1, c2],
            5,
            &[cfg.clone(), cfg],
            ExpansionMode::TopK,
            &mut rng,
        );
        // Two sequence speculations of depth 3 merge into a tree with at
        // most 6 speculated nodes (fewer on shared prefixes), and each
        // SSM's distributions are recorded at the root.
        assert!(spec.tree.speculated_len() <= 6);
        assert!(spec.tree.speculated_len() >= 3);
        assert!(spec.dists.get(TokenTree::ROOT, 0).is_some());
        assert!(spec.dists.get(TokenTree::ROOT, 1).is_some());
    }

    #[test]
    fn parallel_pool_matches_sequential_merge_topk() {
        let m1 = Transformer::from_seed(ModelConfig::smoke(), 10);
        let m2 = Transformer::from_seed(ModelConfig::smoke(), 20);
        let prompt = [4u32, 2];
        let fresh_caches = || {
            let mut c1 = m1.new_cache();
            let mut c2 = m2.new_cache();
            let _ = m1.prefill(&prompt, &mut c1);
            let _ = m2.prefill(&prompt, &mut c2);
            [c1, c2]
        };
        let cfgs = [
            ExpansionConfig::new(vec![2, 2]),
            ExpansionConfig::sequence(3),
        ];
        let seq = speculate_merged(
            &[&m1, &m2],
            &mut fresh_caches(),
            7,
            &cfgs,
            ExpansionMode::TopK,
            &mut SeededRng::new(1),
        );
        let par = speculate_pool_parallel(
            &[&m1, &m2],
            &mut fresh_caches(),
            7,
            &[&cfgs[0], &cfgs[1]],
            ExpansionMode::TopK,
            &mut SeededRng::new(1),
        );
        assert_eq!(seq.tree.all_sequences(), par.tree.all_sequences());
        assert_eq!(seq.dists.len(), par.dists.len());
        for u in seq.tree.node_ids() {
            for ssm_id in 0..2 {
                assert_eq!(
                    seq.dists.get(u, ssm_id),
                    par.dists.get(u, ssm_id),
                    "node {u:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_pool_is_thread_count_invariant() {
        let m1 = Transformer::from_seed(ModelConfig::smoke(), 30);
        let m2 = Transformer::from_seed(ModelConfig::smoke(), 40);
        let prompt = [1u32, 2, 3];
        let cfgs = [
            ExpansionConfig::new(vec![2, 1]),
            ExpansionConfig::new(vec![2, 1]),
        ];
        let run = || {
            let mut c1 = m1.new_cache();
            let mut c2 = m2.new_cache();
            let _ = m1.prefill(&prompt, &mut c1);
            let _ = m2.prefill(&prompt, &mut c2);
            let spec = speculate_pool_parallel(
                &[&m1, &m2],
                &mut [c1, c2],
                5,
                &[&cfgs[0], &cfgs[1]],
                ExpansionMode::Sampled,
                &mut SeededRng::new(9),
            );
            spec.tree.all_sequences()
        };
        specinfer_tensor::set_max_threads(1);
        let serial = run();
        specinfer_tensor::set_max_threads(4);
        let parallel = run();
        specinfer_tensor::set_max_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn speculation_from_identical_ssms_dedups_fully() {
        let m = ssm();
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        let _ = m.prefill(&[3, 1], &mut c1);
        let _ = m.prefill(&[3, 1], &mut c2);
        let mut rng = SeededRng::new(5);
        let cfg = ExpansionConfig::sequence(4);
        let spec = speculate_merged(
            &[&m, &m],
            &mut [c1, c2],
            2,
            &[cfg.clone(), cfg.clone()],
            ExpansionMode::TopK,
            &mut rng,
        );
        // Identical SSMs propose identical greedy sequences → merged tree
        // is a single chain.
        assert_eq!(spec.tree.speculated_len(), cfg.node_count());
    }
}
