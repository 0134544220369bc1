//! The traced run: the daemon's sequence of public calls, repeated by a
//! direct loop on the same inputs, with a span around every call.
//!
//! The loop is the daemon's iteration (pump → expire → admit → session
//! creation → `step_batch_counted` → retire) without its client channels,
//! so the wall difference between the two is the pump, the client hops
//! and the tracing together. Spans are kept in memory and written out
//! when the run ends.

use std::time::{Duration, Instant};

use specinfer_model::Transformer;
use specinfer_serving::{IterationScheduler, Request, RequestId, ServerConfig};
use specinfer_spec::{
    BatchItem, BatchRowStats, BatchedVerifier, InferenceMode, Session, StepStats,
};
use specinfer_tokentree::TokenId;

use crate::workload::Req;

/// The layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `IterationScheduler::submit` of the requests that fell due.
    Submit,
    /// `IterationScheduler::expire`.
    Expire,
    /// `IterationScheduler::admit` / `admit_budgeted`.
    Admit,
    /// `Session::try_new_budgeted` (LLM and SSM prefill).
    SessionNew,
    /// `BatchedVerifier::step_batch_counted`.
    StepBatch,
    /// The daemon's per-iteration accounting: modelled clock, occupancy,
    /// finished-session scan.
    Account,
    /// `Session::into_result` of a finished session.
    IntoResult,
    /// Nothing live and nothing due: waiting for the next arrival.
    Idle,
}

impl Phase {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Submit => "scheduler.submit",
            Phase::Expire => "scheduler.expire",
            Phase::Admit => "scheduler.admit",
            Phase::SessionNew => "session.try_new_budgeted",
            Phase::StepBatch => "verifier.step_batch_counted",
            Phase::Account => "loop.account",
            Phase::IntoResult => "session.into_result",
            Phase::Idle => "loop.idle",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The boundary.
    pub phase: Phase,
    /// Loop iteration the span belongs to.
    pub iteration: usize,
    /// The request it served, for per-request calls.
    pub request: Option<usize>,
    /// Start, seconds after the loop started.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// Result of the traced loop.
#[derive(Debug)]
pub struct TracedRun {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Wall time of the whole loop.
    pub wall_s: f64,
    /// Loop iterations that ran `step_batch_counted`.
    pub iterations: usize,
    /// Generated tokens per request.
    pub outputs: Vec<Vec<TokenId>>,
    /// Per-request step statistics.
    pub steps: Vec<Vec<StepStats>>,
    /// Queue wait per request: admission minus due time, seconds.
    pub queue_wait_s: Vec<f64>,
    /// Verify-row counters summed over iterations.
    pub rows: BatchRowStats,
}

impl TracedRun {
    /// Durations of every span of `phase`, in seconds.
    pub fn durations(&self, phase: Phase) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Summed duration of `phase`.
    pub fn total(&self, phase: Phase) -> f64 {
        self.durations(phase).iter().sum()
    }

    /// Share of the wall covered by spans.
    pub fn coverage(&self) -> f64 {
        self.spans.iter().map(|s| s.dur_s).sum::<f64>() / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// The spans as Chrome trace-event JSON (one track per phase).
    pub fn to_trace_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iteration\":{},\"request\":{}}}}}",
                    s.phase.name(),
                    s.phase as usize,
                    s.start_s * 1e6,
                    s.dur_s * 1e6,
                    s.iteration,
                    s.request.map_or("null".to_string(), |r| r.to_string())
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(",\n"))
    }
}

struct Recorder {
    start: Instant,
    spans: Vec<Span>,
    iteration: usize,
}

impl Recorder {
    fn time<T>(&mut self, phase: Phase, request: Option<usize>, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            phase,
            iteration: self.iteration,
            request,
            start_s: t.duration_since(self.start).as_secs_f64(),
            dur_s: end.duration_since(t).as_secs_f64(),
        });
        out
    }

    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

struct Live {
    idx: usize,
    session: Session,
    config: specinfer_spec::EngineConfig,
}

/// Runs `requests` through the daemon's call sequence on this thread,
/// submitting each when its due time has passed, and records spans.
pub fn run(
    llm: &Transformer,
    ssms: &[&Transformer],
    config: &ServerConfig,
    requests: &[Req],
) -> TracedRun {
    let mut rec = Recorder {
        start: Instant::now(),
        spans: Vec::with_capacity(requests.len() * 8),
        iteration: 0,
    };
    let verifier = BatchedVerifier::new();
    let mut scheduler =
        IterationScheduler::with_policy(config.max_batch_size, config.queue.clone());
    // Slab sizing and admission charging exactly as the daemon does them.
    let spec_rows = config.engine.speculation_rows();
    let max_ctx = llm.config().max_seq_len;
    let session_rows = move |r: &Request| (r.kv_rows() + spec_rows).min(max_ctx);
    let adaptive = matches!(config.engine.mode, InferenceMode::Adaptive { .. });
    let admit_spec_rows = match &config.engine.mode {
        InferenceMode::Adaptive { config: acfg } => {
            acfg.admission_rows(config.engine.decode.is_greedy())
        }
        _ => spec_rows,
    };
    let admit_rows = move |r: &Request| (r.kv_rows() + admit_spec_rows).min(max_ctx);

    let n = requests.len();
    let mut outputs = vec![Vec::new(); n];
    let mut steps = vec![Vec::new(); n];
    let mut queue_wait_s = vec![0.0; n];
    let mut rows = BatchRowStats::default();
    let mut active: Vec<Live> = Vec::new();
    let mut next = 0usize;
    let mut clock = 0.0f64;
    let mut iterations = 0usize;
    loop {
        // Pump: everything due by now joins the queue.
        let now = rec.now_s();
        while let Some(req) = requests.get(next).filter(|r| r.due_s <= now) {
            let request = Request {
                id: RequestId(next as u64),
                prompt: req.prompt.clone(),
                max_new_tokens: req.budget,
                arrival_s: clock,
                deadline_s: None,
                dataset: None,
            };
            let id = next;
            rec.time(Phase::Submit, Some(id), || scheduler.submit(request));
            next += 1;
        }
        if active.is_empty() && !scheduler.has_pending() {
            let Some(req) = requests.get(next) else { break };
            let wait = req.due_s - rec.now_s();
            rec.time(Phase::Idle, None, || {
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            });
            continue;
        }
        let _ = rec.time(Phase::Expire, None, || scheduler.expire(clock));
        let admitted = rec.time(Phase::Admit, None, || match config.slab_rows {
            Some(budget) => {
                let used: usize = active
                    .iter()
                    .map(|a| match adaptive {
                        true => (a.session.kv_rows()
                            + a.session.current_speculation_rows(&a.config))
                        .min(a.session.kv_capacity()),
                        false => a.session.kv_capacity(),
                    })
                    .sum();
                scheduler.admit_budgeted(
                    clock,
                    active.len(),
                    budget.saturating_sub(used),
                    admit_rows,
                )
            }
            None => scheduler.admit(clock, active.len()),
        });
        for request in admitted {
            let idx = request.id.0 as usize;
            let mut engine = config.engine.clone();
            engine.max_new_tokens = request.max_new_tokens;
            let kv_rows = match config.slab_rows {
                Some(_) => session_rows(&request),
                None => usize::MAX,
            };
            queue_wait_s[idx] = rec.now_s() - requests[idx].due_s;
            let session = rec.time(Phase::SessionNew, Some(idx), || {
                Session::try_new_budgeted(
                    llm,
                    ssms,
                    &request.prompt,
                    config.seed.wrapping_add(request.id.0),
                    kv_rows,
                )
            });
            if let Ok(mut session) = session {
                session.set_degradation_policy(config.degradation);
                active.push(Live {
                    idx,
                    session,
                    config: engine,
                });
            }
        }
        if active.is_empty() {
            continue;
        }
        let batch = active.len();
        let (_, iter_rows) = rec.time(Phase::StepBatch, None, || {
            let mut items: Vec<BatchItem<'_>> = active
                .iter_mut()
                .map(|r| BatchItem::new(&mut r.session, &r.config))
                .collect();
            verifier.step_batch_counted(llm, ssms, &mut items)
        });
        rows.absorb(&iter_rows);
        iterations += 1;
        let finished: Vec<usize> = rec.time(Phase::Account, None, || {
            let mean_tree = active
                .iter()
                .filter_map(|r| r.session.steps().last().map(|s| s.tree_size as f64))
                .sum::<f64>()
                / batch as f64;
            let mean_ctx = active
                .iter()
                .map(|r| r.session.tokens().len())
                .sum::<usize>()
                / batch;
            clock += config
                .timing
                .iteration_s(&config.engine.mode, batch, mean_tree, mean_ctx);
            (0..active.len())
                .rev()
                .filter(|&i| active[i].session.is_finished())
                .collect()
        });
        rec.iteration += 1;
        for i in finished {
            let done = active.swap_remove(i);
            let idx = done.idx;
            let result = rec.time(Phase::IntoResult, Some(idx), || done.session.into_result());
            outputs[idx] = result.generated().to_vec();
            steps[idx] = result.steps;
        }
    }
    let wall_s = rec.now_s();
    TracedRun {
        spans: rec.spans,
        wall_s,
        iterations,
        outputs,
        steps,
        queue_wait_s,
        rows,
    }
}
