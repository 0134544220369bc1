//! The replay probe: serially re-runs some of the workload's own requests
//! through the public per-phase functions one speculative iteration is
//! made of, timing each call, plus a matmul microbenchmark at the LLM's
//! decode and tree-verify shapes.
//!
//! One iteration of the probe is what `Session::step` does for one SSM:
//! `speculate_expansion` → `LinearizedTree::new` → `decode_tree` →
//! `verify_greedy` / `verify_stochastic` → `KvCache::retain_rows` → SSM
//! catch-up `prefill`. Incremental decoding is timed through
//! `decode_one`, and session creation through `prefill` of the prompt.

use std::time::Instant;

use specinfer_model::{DecodeMode, Transformer};
use specinfer_spec::{speculate_expansion, verify_greedy, verify_stochastic, ExpansionMode};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{PackedPanels, Tensor};
use specinfer_tokentree::{ExpansionConfig, LinearizedTree, TokenId};

use crate::stats::median;
use crate::workload::Req;

/// Per-call timings (seconds) and acceptance of the probe.
#[derive(Debug, Default)]
pub struct Probe {
    /// `speculate_expansion` per iteration.
    pub draft: Vec<f64>,
    /// `LinearizedTree::new` per iteration.
    pub linearize: Vec<f64>,
    /// `Transformer::decode_tree` per iteration.
    pub verify_forward: Vec<f64>,
    /// `verify_greedy` / `verify_stochastic` per iteration.
    pub verify_walk: Vec<f64>,
    /// `KvCache::retain_rows` per iteration.
    pub kv_retain: Vec<f64>,
    /// SSM catch-up `prefill` per iteration.
    pub ssm_catchup: Vec<f64>,
    /// `Transformer::decode_one` per token.
    pub decode_one: Vec<f64>,
    /// LLM prompt `prefill` per request.
    pub prefill: Vec<f64>,
    /// SSM prompt `prefill` per request.
    pub ssm_prefill: Vec<f64>,
    /// Drafted nodes over all iterations.
    pub nodes: usize,
    /// Accepted drafted nodes over all iterations.
    pub accepted: usize,
    /// Generated tokens per probed request (greedy probes are checked
    /// against the daemon's outputs).
    pub outputs: Vec<Vec<TokenId>>,
}

impl Probe {
    /// Accepted drafted nodes per drafted node.
    pub fn accepted_per_node(&self) -> f64 {
        self.accepted as f64 / self.nodes.max(1) as f64
    }
}

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    into.push(t.elapsed().as_secs_f64());
    out
}

/// Probes `requests` (each decoded to its budget) speculating with `ssm`
/// under `expansion`, verifying under `decode` with per-request seeds
/// `seed + i`.
pub fn run(
    llm: &Transformer,
    ssm: &Transformer,
    expansion: &ExpansionConfig,
    decode: &DecodeMode,
    requests: &[Req],
    seed: u64,
) -> Probe {
    let mut p = Probe::default();
    let mode = ExpansionMode::for_decode_mode(decode);
    for (i, req) in requests.iter().enumerate() {
        let Some((&last, head)) = req.prompt.split_last().filter(|(_, h)| !h.is_empty()) else {
            continue;
        };
        let mut rng = SeededRng::new(seed.wrapping_add(i as u64));
        let mut cache = llm.new_cache();
        let mut ssm_cache = ssm.new_cache();
        timed(&mut p.prefill, || llm.prefill(head, &mut cache));
        timed(&mut p.ssm_prefill, || ssm.prefill(head, &mut ssm_cache));
        let mut tokens = req.prompt.clone();
        let mut root = last;
        while tokens.len() - req.prompt.len() < req.budget
            && cache.len() + expansion.node_count() < cache.max_len()
        {
            let spec = timed(&mut p.draft, || {
                speculate_expansion(ssm, &mut ssm_cache, root, expansion, mode, &mut rng)
            });
            let lin = timed(&mut p.linearize, || LinearizedTree::new(&spec.tree));
            let logits = timed(&mut p.verify_forward, || llm.decode_tree(&lin, &mut cache));
            let outcome = timed(&mut p.verify_walk, || match decode {
                DecodeMode::Greedy => verify_greedy(&spec.tree, &lin, &logits),
                mode => verify_stochastic(&spec.tree, &lin, &logits, &spec.dists, mode, &mut rng),
            });
            let prefix = cache.len() - lin.len();
            let mut keep = vec![0];
            keep.extend(outcome.nodes.iter().map(|&u| lin.index_of(u)));
            timed(&mut p.kv_retain, || cache.retain_rows(prefix, &keep));
            let accepted = outcome.accepted_speculated();
            let mut replay = vec![root];
            replay.extend_from_slice(outcome.tokens.get(..accepted).unwrap_or(&[]));
            timed(&mut p.ssm_catchup, || ssm.prefill(&replay, &mut ssm_cache));
            p.nodes += spec.tree.speculated_len();
            p.accepted += accepted;
            tokens.extend_from_slice(&outcome.tokens);
            root = tokens.last().copied().unwrap_or(root);
        }
        p.outputs.push(tokens.split_off(req.prompt.len()));
        // Incremental decoding of the same request.
        let mut cache = llm.new_cache();
        let _ = llm.prefill(head, &mut cache);
        let mut t = last;
        for _ in 0..req.budget {
            let logits = timed(&mut p.decode_one, || llm.decode_one(t, &mut cache));
            t = argmax(logits.data());
        }
    }
    p
}

fn argmax(xs: &[f32]) -> TokenId {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best as TokenId
}

/// One matmul shape's microbenchmark: `[m, k] × [k, n]`.
#[derive(Debug, Clone, Copy)]
pub struct MatmulProbe {
    /// Median seconds per call.
    pub seconds: f64,
    /// Multiply-adds ×2 per call, from the shape.
    pub flops: f64,
    /// Bytes of A, B and C touched per call, from the shape (f32).
    pub bytes: f64,
}

/// Times `[m, k] × [k, n]` the way the model's dense layers run it:
/// through packed panels when `m` is decode-sized, the blocked matmul
/// otherwise. Median over `reps` batches of calls.
pub fn matmul(m: usize, k: usize, n: usize, reps: usize) -> MatmulProbe {
    let mut rng = SeededRng::new(0x3A7);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let panels = PackedPanels::from_nn(b.data(), k, n);
    let mut out = Tensor::zeros(&[m, n]);
    let packed = m <= specinfer_tensor::PACKED_SMALL_M_MAX;
    let mut call = || {
        if packed {
            a.matmul_packed_into(&panels, &mut out);
        } else {
            a.matmul_into(&b, &mut out);
        }
        std::hint::black_box(&mut out);
    };
    // Calls per timed batch: enough for ~0.2 ms.
    let t = Instant::now();
    call();
    let one = t.elapsed().as_secs_f64().max(1e-7);
    let per_batch = ((2e-4 / one) as usize).clamp(1, 10_000);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    MatmulProbe {
        seconds: median(&samples),
        flops: 2.0 * (m * k * n) as f64,
        bytes: 4.0 * (m * k + k * n + m * n) as f64,
    }
}
