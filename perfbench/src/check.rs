//! Output checking and budget-capped token accounting.
//!
//! Every response's first `budget` tokens must equal a serial
//! [`Session`] replay of the same request with the daemon's per-request
//! seed (`config.seed + request id`) and the serving degradation policy.
//! Greedy workloads must in addition equal plain incremental decoding.
//! Speculative modes may return up to a tree depth of tokens past the
//! budget; only the in-budget tokens count as delivered.

use specinfer_model::Transformer;
use specinfer_serving::ServerConfig;
use specinfer_spec::{DegradationPolicy, EngineConfig, InferenceMode, Session};
use specinfer_tokentree::TokenId;

use crate::workload::Req;

/// Tokens that count toward throughput: at most the budget.
pub fn delivered(generated: &[TokenId], budget: usize) -> usize {
    generated.len().min(budget)
}

/// Tokens returned past the budget.
pub fn overshoot(generated: &[TokenId], budget: usize) -> usize {
    generated.len().saturating_sub(budget)
}

/// Whether `got` holds the whole budget and its first `budget` tokens
/// equal `expected`'s.
pub fn matches(expected: &[TokenId], got: &[TokenId], budget: usize) -> bool {
    match (expected.get(..budget), got.get(..budget)) {
        (Some(e), Some(g)) => e == g,
        _ => false,
    }
}

/// Serially decodes `req` with a [`Session`] under `engine`, seeded like
/// the daemon's request `id`, with the serving degradation policy.
fn serial_replay(
    llm: &Transformer,
    ssms: &[&Transformer],
    engine: &EngineConfig,
    req: &Req,
    seed: u64,
) -> Result<Vec<TokenId>, String> {
    let mut config = engine.clone();
    config.max_new_tokens = req.budget;
    let mut session = Session::try_new(llm, ssms, &req.prompt, seed).map_err(|e| e.to_string())?;
    session.set_degradation_policy(DegradationPolicy::serving_default());
    while !session.is_finished() {
        let _ = session.step(llm, ssms, &config);
    }
    Ok(session.into_result().generated().to_vec())
}

/// The reference outputs of every request: the serial replay, and for
/// greedy decoding also incremental decoding, which must agree with it.
/// Runs on up to `threads` threads; returns per-request outputs or the
/// first disagreement.
pub fn reference_outputs(
    llm: &Transformer,
    ssms: &[&Transformer],
    config: &ServerConfig,
    requests: &[Req],
    threads: usize,
) -> Result<Vec<Vec<TokenId>>, String> {
    // Greedy outputs must also equal incremental decoding (unless the
    // engine already decodes incrementally).
    let greedy = config.engine.decode.is_greedy()
        && !matches!(config.engine.mode, InferenceMode::Incremental);
    let incremental = EngineConfig {
        mode: InferenceMode::Incremental,
        ..config.engine.clone()
    };
    let one = |id: usize, req: &Req| -> Result<Vec<TokenId>, String> {
        let seed = config.seed.wrapping_add(id as u64);
        let out = serial_replay(llm, ssms, &config.engine, req, seed)?;
        if greedy {
            let inc = serial_replay(llm, ssms, &incremental, req, seed)?;
            if !matches(&inc, &out, req.budget) {
                return Err(format!(
                    "request {id}: serial replay differs from incremental decoding"
                ));
            }
        }
        Ok(out)
    };
    let threads = threads.clamp(1, requests.len().max(1));
    let chunk = requests.len().div_ceil(threads).max(1);
    let parts: Vec<Result<Vec<Vec<TokenId>>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .enumerate()
            .map(|(c, reqs)| {
                let one = &one;
                scope.spawn(move || {
                    reqs.iter()
                        .enumerate()
                        .map(|(j, r)| one(c * chunk + j, r))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("checker thread panicked".into()))
            })
            .collect()
    });
    let mut out = Vec::with_capacity(requests.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

/// Compares one round's responses against the references; returns the
/// ids of requests that failed or mismatched.
pub fn mismatches(
    expected: &[Vec<TokenId>],
    got: &[Option<Vec<TokenId>>],
    requests: &[Req],
) -> Vec<usize> {
    requests
        .iter()
        .enumerate()
        .filter(|&(i, req)| match (expected.get(i), got.get(i)) {
            (Some(e), Some(Some(g))) => !matches(e, g, req.budget),
            _ => true,
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_model::ModelConfig;
    use specinfer_spec::StochasticVerifier;
    use specinfer_tokentree::ExpansionConfig;

    #[test]
    fn only_in_budget_tokens_are_delivered() {
        let g: Vec<TokenId> = (0..91).collect();
        assert_eq!(delivered(&g, 86), 86);
        assert_eq!(overshoot(&g, 86), 5);
        assert_eq!(delivered(&g[..40], 86), 40);
        assert_eq!(overshoot(&g[..40], 86), 0);
    }

    #[test]
    fn matching_ignores_overshoot_but_not_shortfall() {
        let e: Vec<TokenId> = vec![5, 6, 7, 8];
        assert!(matches(&e, &[5, 6, 7, 9, 9], 3));
        assert!(!matches(&e, &[5, 6], 3));
        assert!(!matches(&e, &[5, 7, 7], 3));
    }

    #[test]
    fn the_output_check_rejects_a_corrupted_response() {
        let llm = Transformer::from_seed(ModelConfig::smoke(), 1);
        let ssm = Transformer::from_seed(ModelConfig::smoke(), 2);
        let config = ServerConfig {
            engine: EngineConfig {
                decode: specinfer_model::DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode: InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1]),
                },
                max_new_tokens: 0,
                eos_token: None,
            },
            ..crate::workload::Workload::OfflineTreeGreedy.server_config(3)
        };
        let requests: Vec<Req> = (0..4u32)
            .map(|i| Req {
                prompt: vec![0, 2 + i, 3],
                budget: 6 + i as usize,
                due_s: 0.0,
            })
            .collect();
        let expected = reference_outputs(&llm, &[&ssm], &config, &requests, 2)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut got: Vec<Option<Vec<TokenId>>> = expected.iter().cloned().map(Some).collect();
        assert!(mismatches(&expected, &got, &requests).is_empty());
        // Tokens past the budget are not checked.
        if let Some(Some(g)) = got.get_mut(0) {
            g.push(0);
        }
        assert!(mismatches(&expected, &got, &requests).is_empty());
        // One flipped in-budget token, one missing response.
        if let Some(Some(g)) = got.get_mut(2) {
            g[1] ^= 1;
        }
        got[3] = None;
        assert_eq!(mismatches(&expected, &got, &requests), vec![2, 3]);
    }
}
