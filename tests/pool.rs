//! Smoke test of the persistent worker pool under the batched verifier:
//! at every thread cap, pooled speculation, kernels and attention must
//! reproduce serial stepping token for token, and pool work that calls
//! back into the pool must finish inline.

use std::sync::Mutex;

use specinfer::model::{DecodeMode, ModelConfig, Transformer};
use specinfer::spec::{
    BatchItem, BatchedVerifier, EngineConfig, InferenceMode, Session, StochasticVerifier,
};
use specinfer::tensor::rng::SeededRng;
use specinfer::tensor::{kernels, pool, set_max_threads, Tensor};
use specinfer::tokentree::{ExpansionConfig, TokenId};

/// Serializes the tests that move the process-wide thread cap.
static CAP: Mutex<()> = Mutex::new(());

fn config(decode: DecodeMode) -> EngineConfig {
    EngineConfig {
        decode,
        verifier: StochasticVerifier::MultiStep,
        mode: InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::new(vec![2, 2, 1]),
        },
        max_new_tokens: 10,
        eos_token: None,
    }
}

fn prompt(slot: usize) -> Vec<TokenId> {
    vec![1 + slot as TokenId, 2, 3 + (slot % 5) as TokenId, 4]
}

/// Token sequences of `batch` sessions stepped one by one.
fn serial(llm: &Transformer, ssms: &[&Transformer], cfg: &EngineConfig) -> Vec<Vec<TokenId>> {
    (0..4)
        .map(|b| {
            let mut s = Session::new(llm, ssms, &prompt(b), 7 + b as u64);
            while !s.is_finished() {
                let _ = s.step(llm, ssms, cfg);
            }
            s.into_result().tokens
        })
        .collect()
}

/// Token sequences of the same sessions stepped as one batch of four.
fn batched(llm: &Transformer, ssms: &[&Transformer], cfg: &EngineConfig) -> Vec<Vec<TokenId>> {
    let verifier = BatchedVerifier::new();
    let mut sessions: Vec<Session> = (0..4)
        .map(|b| Session::new(llm, ssms, &prompt(b), 7 + b as u64))
        .collect();
    while sessions.iter().any(|s| !s.is_finished()) {
        let mut items: Vec<BatchItem<'_>> = sessions
            .iter_mut()
            .map(|session| BatchItem {
                session,
                config: cfg,
                fault: Default::default(),
            })
            .collect();
        let _ = verifier.step_batch(llm, ssms, &mut items);
    }
    sessions
        .into_iter()
        .map(|s| s.into_result().tokens)
        .collect()
}

#[test]
fn batched_verify_matches_serial_steps_at_every_thread_cap() {
    let _cap = CAP.lock().unwrap_or_else(|e| e.into_inner());
    // The smoke LLM keeps every kernel serial, so only the session
    // fan-out and the two-SSM speculation use the pool; the wider one
    // also pushes the stacked dense layers and attention past the
    // pooling threshold.
    let wide = ModelConfig {
        d_model: 64,
        n_heads: 4,
        n_layers: 1,
        d_ff: 192,
        ..ModelConfig::smoke()
    };
    let ssm_config = ModelConfig {
        d_model: 8,
        n_heads: 2,
        n_layers: 1,
        d_ff: 16,
        ..ModelConfig::smoke()
    };
    let ssm_a = Transformer::from_seed(ssm_config.clone(), 31);
    let ssm_b = Transformer::from_seed(ssm_config, 32);
    let ssms = [&ssm_a, &ssm_b];
    for llm in [
        Transformer::from_seed(ModelConfig::smoke(), 30),
        Transformer::from_seed(wide, 30),
    ] {
        for decode in [DecodeMode::Greedy, DecodeMode::stochastic()] {
            let cfg = config(decode);
            set_max_threads(1);
            let want = serial(&llm, &ssms, &cfg);
            for cap in [1, 2, 4] {
                set_max_threads(cap);
                let got = batched(&llm, &ssms, &cfg);
                assert_eq!(got, want, "{:?} at cap {cap}", cfg.decode);
            }
        }
    }
    set_max_threads(0);
}

#[test]
fn kernels_called_from_pool_jobs_finish_inline() {
    let _cap = CAP.lock().unwrap_or_else(|e| e.into_inner());
    set_max_threads(4);
    // 64³ multiply-adds: pooled when called from outside the pool.
    let n = 64;
    assert!(n * n * n >= kernels::PAR_MIN_FLOPS);
    let mut rng = SeededRng::new(5);
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, n], 1.0, &mut rng);
    let want = a.matmul(&b);
    let mut outs = vec![Tensor::default(); 6];
    pool::for_each_mut(&mut outs, |_, out| *out = a.matmul(&b));
    set_max_threads(0);
    for out in &outs {
        assert_eq!(out.data(), want.data());
    }
}
