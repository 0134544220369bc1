//! The benchmark's workloads: seeded request sets plus the daemon
//! configuration each one is served under.
//!
//! A workload is generated entirely from `--seed`; the daemon receives
//! only the resulting prompts, budgets and (for the open loop) due times.

use specinfer_model::DecodeMode;
use specinfer_serving::{QueuePolicy, ServerConfig, TimingConfig};
use specinfer_spec::{
    AdaptiveConfig, DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier,
};
use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::{ExpansionConfig, TokenId};
use specinfer_workloads::{Dataset, Grammar, EOS_TOKEN};

/// Seed of the synthetic grammar the trained suite is built on
/// (`specinfer_bench::Suite`'s grammar).
pub const GRAMMAR_SEED: u64 = 20_240_427;

/// The synthetic language the trained suite models; prompts come from it.
pub fn grammar() -> Grammar {
    Grammar::synthetic(256, GRAMMAR_SEED)
}

/// One request of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Prompt tokens (BOS first).
    pub prompt: Vec<TokenId>,
    /// Tokens the client asked for (`max_new_tokens`).
    pub budget: usize,
    /// When the request is due, in seconds after the round starts.
    pub due_s: f64,
}

/// Which SSMs of the trained suite the daemon holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drafters {
    /// The distilled primary SSM alone.
    Distilled,
    /// The three boost-tuned SSMs.
    BoostPool,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All requests due at t = 0, short unshared prompts, greedy
    /// `paper_default` tree speculation at batch 8.
    OfflineTreeGreedy,
    /// A long shared prompt prefix, incremental greedy decoding, admission
    /// bounded by KV slab rows.
    SharedPrefixIncremental,
    /// Seeded Poisson arrivals, adaptive speculation over the boost pool
    /// with multi-step speculative sampling.
    OpenAdaptiveMss,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload::OfflineTreeGreedy,
    Workload::SharedPrefixIncremental,
    Workload::OpenAdaptiveMss,
];

/// Requests per round of [`Workload::OfflineTreeGreedy`].
pub const OFFLINE_REQUESTS: usize = 160;
/// Requests per round of [`Workload::SharedPrefixIncremental`].
pub const SHARED_REQUESTS: usize = 160;
/// Requests per round of [`Workload::OpenAdaptiveMss`]: the fewest whose
/// tail is the 75th percentile (ten samples beyond it).
pub const OPEN_REQUESTS: usize = 40;
/// Tokens every request of [`Workload::OpenAdaptiveMss`] asks for. Long
/// enough (about 25 ms of service on a 2-vCPU AVX2 VM) that a request's
/// latency spans more than one of a shared host's sub-second slow spells:
/// at 64 tokens (10 ms) the per-round tail doubled whenever the host was
/// noisy.
pub const OPEN_BUDGET: usize = 192;
/// Arrival rate of [`Workload::OpenAdaptiveMss`], requests per second:
/// 960 tokens/s offered, about a quarter of the token throughput the
/// daemon sustains on that VM in its fast periods and about half in its
/// slowest, so the load stays below saturation when the shared host runs
/// several times slower. Near saturation, latency grows much faster than
/// the slowdown and a run measures the host.
pub const OPEN_RATE_PER_S: f64 = 5.0;
/// Shared prompt prefix length of [`Workload::SharedPrefixIncremental`].
pub const SHARED_PREFIX_LEN: usize = 160;
/// KV slab budget of [`Workload::SharedPrefixIncremental`], in rows.
pub const SHARED_SLAB_ROWS: usize = 1024;

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineTreeGreedy => "offline_tree_greedy",
            Workload::SharedPrefixIncremental => "sharedprefix_incremental",
            Workload::OpenAdaptiveMss => "open_adaptive_mss",
        }
    }

    /// Per-token latency limit for `slo_attainment`, in milliseconds: set
    /// above the per-token tail measured on a 2-vCPU AVX2 host, so a run
    /// at that speed attains most of its requests and attainment falls as
    /// latency grows.
    pub fn per_token_slo_ms(self) -> f64 {
        match self {
            Workload::OfflineTreeGreedy => 100.0,
            Workload::SharedPrefixIncremental => 120.0,
            Workload::OpenAdaptiveMss => 2.0,
        }
    }

    /// The SSMs the daemon holds.
    pub fn drafters(self) -> Drafters {
        match self {
            Workload::OpenAdaptiveMss => Drafters::BoostPool,
            _ => Drafters::Distilled,
        }
    }

    /// Whether outputs are deterministic functions of the prompt alone
    /// (greedy decoding), so they must also equal incremental decoding.
    pub fn is_greedy(self) -> bool {
        self.engine().decode.is_greedy()
    }

    /// The engine configuration every request runs under (its
    /// `max_new_tokens` is replaced by each request's budget). No EOS
    /// token: every request decodes its whole budget, so the work per
    /// request is fixed by the workload.
    pub fn engine(self) -> EngineConfig {
        let (decode, mode) = match self {
            Workload::OfflineTreeGreedy => (
                DecodeMode::Greedy,
                InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::paper_default(),
                },
            ),
            Workload::SharedPrefixIncremental => (DecodeMode::Greedy, InferenceMode::Incremental),
            Workload::OpenAdaptiveMss => (
                DecodeMode::Stochastic {
                    temperature: 1.0,
                    top_k: None,
                    top_p: None,
                },
                InferenceMode::Adaptive {
                    config: AdaptiveConfig::default(),
                },
            ),
        };
        EngineConfig {
            decode,
            verifier: StochasticVerifier::MultiStep,
            mode,
            max_new_tokens: 0,
            eos_token: None,
        }
    }

    /// The daemon configuration. `seed` is the daemon's own seed: request
    /// `i` of a fresh daemon decodes with `seed + i`.
    pub fn server_config(self, seed: u64) -> ServerConfig {
        let (max_batch_size, slab_rows) = match self {
            Workload::OfflineTreeGreedy => (8, None),
            Workload::SharedPrefixIncremental => (16, Some(SHARED_SLAB_ROWS)),
            Workload::OpenAdaptiveMss => (8, None),
        };
        ServerConfig {
            engine: self.engine(),
            max_batch_size,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows,
        }
    }

    /// The requests of round `round` of a run with `seed`. Open-loop
    /// latency depends on the arrival pattern, so every open-loop round
    /// replays the same requests on a different seeded Poisson schedule and
    /// a run takes the median over several; the closed workloads' work does
    /// not depend on order, so their rounds repeat one request set. Either
    /// way every round serves the same prompts and budgets in the same
    /// order, so its outputs are checked against one set of references.
    pub fn round_requests(self, grammar: &Grammar, seed: u64, round: usize) -> Vec<Req> {
        match self {
            Workload::OpenAdaptiveMss if round > 0 => {
                let sub = (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = SeededRng::new(seed ^ sub ^ 0x5C4E_D01E);
                let mut requests = self.requests(grammar, seed);
                let due = poisson_schedule(&mut rng, requests.len(), OPEN_RATE_PER_S);
                for (req, due_s) in requests.iter_mut().zip(due) {
                    req.due_s = due_s;
                }
                requests
            }
            _ => self.requests(grammar, seed),
        }
    }

    /// The workload's requests for `seed`, in submission order.
    pub fn requests(self, grammar: &Grammar, seed: u64) -> Vec<Req> {
        let mut rng = SeededRng::new(seed ^ 0x7E57_BE9C);
        let datasets = Dataset::all();
        match self {
            Workload::OfflineTreeGreedy => {
                let budgets = stratified(&mut rng, OFFLINE_REQUESTS, 32, 96);
                budgets
                    .into_iter()
                    .enumerate()
                    .map(|(i, budget)| Req {
                        prompt: prompt(grammar, datasets[i % 5], 16, rng.next_u64()),
                        budget,
                        due_s: 0.0,
                    })
                    .collect()
            }
            Workload::SharedPrefixIncremental => {
                let prefix = shared_prefix(grammar, SHARED_PREFIX_LEN, &mut rng);
                let tails = stratified(&mut rng, SHARED_REQUESTS, 16, 48);
                let budgets = stratified(&mut rng, SHARED_REQUESTS, 16, 32);
                tails
                    .into_iter()
                    .zip(budgets)
                    .enumerate()
                    .map(|(i, (tail_len, budget))| {
                        let tail = prompt(grammar, datasets[i % 5], tail_len, rng.next_u64());
                        let mut p = prefix.clone();
                        p.extend_from_slice(tail.get(1..).unwrap_or(&[]));
                        Req {
                            prompt: p,
                            budget,
                            due_s: 0.0,
                        }
                    })
                    .collect()
            }
            Workload::OpenAdaptiveMss => {
                let due = poisson_schedule(&mut rng, OPEN_REQUESTS, OPEN_RATE_PER_S);
                let lens = stratified(&mut rng, OPEN_REQUESTS, 8, 48);
                due.into_iter()
                    .zip(lens)
                    .map(|(due_s, len)| Req {
                        prompt: prompt(grammar, datasets[rng.below(5)], len, rng.next_u64()),
                        budget: OPEN_BUDGET,
                        due_s,
                    })
                    .collect()
            }
        }
    }
}

/// One dataset prompt of `len` tokens after BOS.
fn prompt(grammar: &Grammar, ds: Dataset, len: usize, seed: u64) -> Vec<TokenId> {
    ds.prompts(grammar, 1, len, 0, seed)
        .pop()
        .map(|p| p.tokens)
        .unwrap_or_default()
}

/// A BOS-led prefix of `len` grammar tokens, built from consecutive
/// grammar walks with their EOS tokens dropped.
fn shared_prefix(grammar: &Grammar, len: usize, rng: &mut SeededRng) -> Vec<TokenId> {
    let domain = rng.below(5);
    let mut prefix = vec![specinfer_workloads::BOS_TOKEN];
    while prefix.len() < len + 1 {
        let walk = grammar.sample_sequence(Some(domain), len, rng);
        prefix.extend(walk.into_iter().skip(1).filter(|&t| t != EOS_TOKEN));
    }
    prefix.truncate(len + 1);
    prefix
}

/// `n` values evenly covering `lo..=hi`, in seeded random order: every
/// seed draws the same multiset, so the total work of a round does not
/// depend on the seed while each request's share of it does.
fn stratified(rng: &mut SeededRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64;
    rng.permutation(n)
        .into_iter()
        .map(|i| lo + ((i as f64 + 0.5) * width / n as f64) as usize)
        .collect()
}

/// Due times of `n` Poisson arrivals at `rate` per second, starting at 0.
/// The exponential gaps are stratified like [`stratified`]: every seed
/// draws the same multiset of gaps, in seeded random order, rescaled so the
/// last arrival is due at exactly `(n - 1) / rate`. Which requests overlap
/// depends on the seed; how many arrive within a given gap of the previous
/// one does not, so the share of requests that share a batch (and with it
/// the latency tail) is the same for every seed.
fn poisson_schedule(rng: &mut SeededRng, n: usize, rate: f64) -> Vec<f64> {
    let m = n.saturating_sub(1);
    let gaps: Vec<f64> = rng
        .permutation(m)
        .into_iter()
        .map(|i| -(1.0 - (i as f64 + 0.5) / m as f64).ln())
        .collect();
    let scale = m as f64 / rate / gaps.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut t = 0.0;
    let mut due = vec![0.0];
    for g in gaps {
        t += g * scale;
        due.push(t);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_open_loop_schedule() {
        let g = grammar();
        let a = Workload::OpenAdaptiveMss.requests(&g, 7);
        let b = Workload::OpenAdaptiveMss.requests(&g, 7);
        let c = Workload::OpenAdaptiveMss.requests(&g, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Open-loop rounds replay different schedules; closed rounds repeat.
        let w = Workload::OpenAdaptiveMss;
        assert_eq!(w.round_requests(&g, 7, 0), a);
        let r1 = w.round_requests(&g, 7, 1);
        assert_ne!(r1, a);
        assert_eq!(r1, w.round_requests(&g, 7, 1));
        // A later round keeps the prompts and budgets, not the schedule.
        assert!(r1
            .iter()
            .zip(&a)
            .all(|(x, y)| x.prompt == y.prompt && x.budget == y.budget));
        let span = |s: &[Req]| s.last().map_or(0.0, |r| r.due_s);
        assert!((span(&r1) - span(&a)).abs() < 1e-9);
        let off = Workload::OfflineTreeGreedy;
        assert_eq!(off.round_requests(&g, 7, 3), off.requests(&g, 7));
        assert_eq!(a.len(), OPEN_REQUESTS);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert_eq!(a[0].due_s, 0.0);
        // Every seed offers the same load: the last arrival is due at
        // (n - 1) / rate.
        for s in [a.as_slice(), c.as_slice()] {
            let span = s.last().map_or(0.0, |r| r.due_s);
            let expected = (OPEN_REQUESTS - 1) as f64 / OPEN_RATE_PER_S;
            assert!((span - expected).abs() < 1e-9, "{span}");
        }
        assert!(a.iter().all(|r| r.budget == OPEN_BUDGET));
        // Every seed draws the same gaps, in its own order.
        let gaps = |s: &[Req]| {
            let mut g: Vec<f64> = s.windows(2).map(|w| w[1].due_s - w[0].due_s).collect();
            g.sort_by(f64::total_cmp);
            g
        };
        for (x, y) in gaps(&a).iter().zip(gaps(&c)) {
            assert!((x - y).abs() < 1e-9);
        }
        assert!(a.iter().all(|r| (9..=49).contains(&r.prompt.len())));
    }

    #[test]
    fn stratified_values_cover_the_range_for_every_seed() {
        let mut r1 = SeededRng::new(1);
        let mut r2 = SeededRng::new(2);
        let a = stratified(&mut r1, 120, 32, 96);
        let b = stratified(&mut r2, 120, 32, 96);
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert_eq!(sa.first(), Some(&32));
        assert_eq!(sa.last(), Some(&96));
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        let g = grammar();
        let off = Workload::OfflineTreeGreedy.requests(&g, 1);
        assert!(off.iter().all(|r| r.due_s == 0.0 && r.prompt.len() == 17));
        assert!(off.iter().all(|r| (32..=96).contains(&r.budget)));
        let shared = Workload::SharedPrefixIncremental.requests(&g, 1);
        let prefix = &shared[0].prompt[..SHARED_PREFIX_LEN + 1];
        assert!(shared.iter().all(|r| r.prompt.starts_with(prefix)));
        assert!(shared
            .iter()
            .all(|r| (SHARED_PREFIX_LEN + 17..=SHARED_PREFIX_LEN + 49).contains(&r.prompt.len())));
        assert!(shared.iter().all(|r| (16..=32).contains(&r.budget)));
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
