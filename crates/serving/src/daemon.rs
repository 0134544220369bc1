//! A live serving daemon: the request-manager loop of Figure 6 running
//! on a real background thread.
//!
//! [`Server`](crate::Server) replays a whole trace on a simulated clock;
//! [`ServerDaemon`] instead accepts submissions *while running* (from any
//! thread, via channels) and continuously executes **ragged** decoding
//! iterations: every iteration, finished requests retire, and queued
//! submissions join mid-flight through the
//! [`IterationScheduler`](crate::IterationScheduler)'s
//! occupancy-maximizing admission — the batch never runs in lockstep.
//! Simulated time is still used for the latency metrics (the cost model
//! prices each iteration); wall-clock arrival order drives admission.
//! The per-iteration audit trail ([`ServeReport::iteration_log`]) and
//! batch/slab occupancy ([`ServeReport::occupancy`]) are reported on
//! shutdown.
//!
//! The daemon honours the same [`FaultPlan`](crate::FaultPlan) as the
//! trace-driven server, plus *client-initiated* cancellation: any thread
//! holding the daemon handle can cut a request mid-stream with
//! [`ServerDaemon::cancel`], and the partial output is returned through
//! the request's [`Ticket`].

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use specinfer_model::Transformer;
use specinfer_spec::{
    BatchItem, BatchRowStats, BatchedVerifier, ControllerSnapshot, InferenceMode, Session,
    StepStats,
};
use specinfer_tokentree::TokenId;

use crate::metrics::{FaultCounters, IterationRecord, OccupancyStats, ServeReport};
use crate::request::{Request, RequestId, RequestOutcome, Response};
use crate::scheduler::IterationScheduler;
use crate::server::ServerConfig;

enum Msg {
    Submit {
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        /// Latency budget in simulated seconds; the absolute deadline is
        /// the admission clock plus this budget.
        budget_s: Option<f64>,
        reply: Sender<Response>,
        id_reply: Sender<RequestId>,
    },
    Cancel(RequestId),
    Shutdown,
}

/// Errors from the daemon's client-facing surface.
///
/// A daemon failure must reach the submitting thread as a value — the
/// submitter may be a request handler that has to answer *its* caller —
/// so every handle method that can observe a dead daemon returns one of
/// these instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonError {
    /// The OS refused to spawn the daemon thread.
    SpawnFailed,
    /// The daemon is no longer running (shut down or crashed) and cannot
    /// take this call.
    NotRunning,
    /// The daemon thread panicked; its report is lost.
    Panicked,
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::SpawnFailed => write!(f, "failed to spawn the serving daemon thread"),
            DaemonError::NotRunning => write!(f, "the serving daemon is not running"),
            DaemonError::Panicked => write!(f, "the serving daemon panicked"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// A ticket for one submitted request.
#[derive(Debug)]
pub struct Ticket {
    /// The assigned request id.
    pub id: RequestId,
    rx: Receiver<Response>,
}

impl Ticket {
    /// Blocks until the request completes (or is cancelled/expired/
    /// rejected — the response's `outcome` says which). Errs only if the
    /// daemon shut down before answering this request.
    pub fn wait(self) -> Result<Response, DaemonError> {
        self.rx.recv().map_err(|_| DaemonError::NotRunning)
    }
}

/// Handle to a running serving daemon.
///
/// Dropping the handle without calling [`ServerDaemon::shutdown`] shuts
/// the daemon down and discards its report.
#[derive(Debug)]
pub struct ServerDaemon {
    tx: Sender<Msg>,
    join: Option<JoinHandle<ServeReport>>,
}

impl ServerDaemon {
    /// Spawns the daemon thread.
    pub fn spawn(
        llm: Arc<Transformer>,
        ssms: Vec<Arc<Transformer>>,
        config: ServerConfig,
    ) -> Result<ServerDaemon, DaemonError> {
        let (tx, rx) = unbounded::<Msg>();
        let join = std::thread::Builder::new()
            .name("specinfer-daemon".into())
            .spawn(move || daemon_loop(&llm, &ssms, &config, &rx))
            .map_err(|_| DaemonError::SpawnFailed)?;
        Ok(ServerDaemon {
            tx,
            join: Some(join),
        })
    }

    /// Submits a request; returns a [`Ticket`] whose `wait()` yields the
    /// response. Callable from any thread. Errs if the daemon has
    /// already shut down.
    pub fn submit(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
    ) -> Result<Ticket, DaemonError> {
        self.submit_inner(prompt, max_new_tokens, None)
    }

    /// Submits a request with a latency budget: if the request hasn't
    /// finished within `budget_s` simulated seconds of admission, it is
    /// shed mid-stream and its ticket resolves with
    /// [`RequestOutcome::DeadlineMissed`].
    pub fn submit_with_deadline(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        budget_s: f64,
    ) -> Result<Ticket, DaemonError> {
        self.submit_inner(prompt, max_new_tokens, Some(budget_s))
    }

    fn submit_inner(
        &self,
        prompt: Vec<TokenId>,
        max_new_tokens: usize,
        budget_s: Option<f64>,
    ) -> Result<Ticket, DaemonError> {
        let (reply_tx, reply_rx) = bounded(1);
        let (id_tx, id_rx) = bounded(1);
        self.tx
            .send(Msg::Submit {
                prompt,
                max_new_tokens,
                budget_s,
                reply: reply_tx,
                id_reply: id_tx,
            })
            .map_err(|_| DaemonError::NotRunning)?;
        let id = id_rx.recv().map_err(|_| DaemonError::NotRunning)?;
        Ok(Ticket { id, rx: reply_rx })
    }

    /// Cancels an in-flight request. The request's ticket resolves with
    /// [`RequestOutcome::Cancelled`] and whatever tokens were generated
    /// before the cut. Cancelling an unknown or finished id is a no-op.
    pub fn cancel(&self, id: RequestId) {
        let _ = self.tx.send(Msg::Cancel(id));
    }

    /// Finishes all in-flight requests, stops the daemon, and returns its
    /// aggregate report. Errs if the daemon thread panicked.
    pub fn shutdown(mut self) -> Result<ServeReport, DaemonError> {
        let _ = self.tx.send(Msg::Shutdown);
        let Some(join) = self.join.take() else {
            // `shutdown` consumes the handle and only `Drop` also takes
            // the join handle, so it is always present here.
            unreachable!("shutdown runs before Drop and only once")
        };
        join.join().map_err(|_| DaemonError::Panicked)
    }
}

impl Drop for ServerDaemon {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

struct LiveRequest {
    id: RequestId,
    prompt_len: usize,
    session: Session,
    config: specinfer_spec::EngineConfig,
    reply: Sender<Response>,
    arrival_s: f64,
    /// Absolute simulated-clock deadline, if the submission had a budget.
    deadline_s: Option<f64>,
    /// Fault-plan cancellation threshold (generated tokens), if any.
    cancel_at: Option<usize>,
    /// Set by a client [`Msg::Cancel`]; retired before the next step.
    client_cancelled: bool,
    /// Iterations executed — the fault plan's step index.
    steps_taken: usize,
    last: Option<StepStats>,
}

impl LiveRequest {
    fn retire(
        self,
        clock: f64,
        outcome: RequestOutcome,
        faults: &mut FaultCounters,
        controller: &mut ControllerSnapshot,
    ) -> Response {
        let d = self.session.degradation();
        faults.fallbacks_taken += d.fallbacks_taken;
        faults.fallback_steps += d.fallback_steps;
        faults.reprobes += d.reprobes;
        if let Some(snap) = self.session.controller_snapshot() {
            controller.absorb(&snap);
        }
        let result = self.session.into_result();
        let response = Response {
            id: self.id,
            dataset: None,
            prompt_len: self.prompt_len,
            generated: result.generated().to_vec(),
            arrival_s: self.arrival_s,
            finish_s: clock,
            // Exact length: the report keeps every response, and the
            // session's `Vec` has grown by doubling.
            steps: result.steps.into_boxed_slice().into_vec(),
            outcome,
        };
        let _ = self.reply.send(response.clone());
        response
    }
}

/// A submission parked in the scheduler queue: the ticket's reply
/// channel and whether the client already cancelled it while queued.
struct Waiting {
    reply: Sender<Response>,
    cancelled: bool,
}

/// Answers a never-decoded request's ticket with a stub response and
/// records it in the run's response list.
fn stub_reply(
    waiting: &mut HashMap<u64, Waiting>,
    responses: &mut Vec<Response>,
    request: &Request,
    clock: f64,
    outcome: RequestOutcome,
) {
    let response = Response {
        id: request.id,
        dataset: request.dataset,
        prompt_len: request.prompt.len(),
        generated: Vec::new(),
        arrival_s: request.arrival_s,
        finish_s: clock,
        steps: Vec::new(),
        outcome,
    };
    if let Some(w) = waiting.remove(&request.id.0) {
        let _ = w.reply.send(response.clone());
    }
    responses.push(response);
}

/// Upper bound on a single idle wait in [`daemon_loop`]'s message pump.
/// A timeout is not an event — the loop just re-checks its state — so
/// the value only trades shutdown latency against idle wakeups.
const IDLE_HEARTBEAT: Duration = Duration::from_millis(50);

fn daemon_loop(
    llm: &Transformer,
    ssms: &[Arc<Transformer>],
    config: &ServerConfig,
    rx: &Receiver<Msg>,
) -> ServeReport {
    let wall = crate::clock::Stopwatch::start();
    let ssm_refs: Vec<&Transformer> = ssms.iter().map(Arc::as_ref).collect();
    let verifier = BatchedVerifier::new();
    let plan = config.faults.as_ref();
    // The join half of the ragged lifecycle: arrivals queue here and are
    // admitted mid-flight, every iteration, under the same FIFO/
    // backpressure semantics as the trace-driven server.
    let mut scheduler =
        IterationScheduler::with_policy(config.max_batch_size, config.queue.clone());
    let mut waiting: HashMap<u64, Waiting> = HashMap::new();
    // Slab sizing stays worst-case (under adaptive, the top of the
    // controller's ladder) so a session can climb to any rung without
    // overflowing its right-sized KV slab…
    let spec_rows = config.engine.speculation_rows();
    let max_ctx = llm.config().max_seq_len;
    let session_rows = move |r: &Request| (r.kv_rows() + spec_rows).min(max_ctx);
    // …but admission *charges* what the request will actually append per
    // iteration: a fresh adaptive request starts on the initial rung, so
    // charging the worst case would leave paid-for batch slots empty.
    let adaptive = matches!(config.engine.mode, InferenceMode::Adaptive { .. });
    let admit_spec_rows = match &config.engine.mode {
        InferenceMode::Adaptive { config: acfg } => {
            acfg.admission_rows(config.engine.decode.is_greedy())
        }
        _ => spec_rows,
    };
    let admit_rows = move |r: &Request| (r.kv_rows() + admit_spec_rows).min(max_ctx);
    let mut clock = 0.0f64;
    let mut next_id = 0u64;
    let mut active: Vec<LiveRequest> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    let mut iterations = 0usize;
    let mut iteration_log: Vec<IterationRecord> = Vec::new();
    let mut batch_fill_sum = 0.0f64;
    let mut slab_fill_sum = 0.0f64;
    let mut peak_batch = 0usize;
    let mut faults = FaultCounters::default();
    let mut controller_snap = ControllerSnapshot::default();
    let mut verify_rows = BatchRowStats::default();
    let mut draining = false;

    loop {
        // Message pump: block only when there is truly nothing to do —
        // no live batch and no queued work — otherwise drain whatever
        // has arrived and get back to decoding.
        loop {
            let msg = if active.is_empty() && !scheduler.has_pending() && !draining {
                // Idle wait with a deadline: the heartbeat bounds every
                // blocking wait on the serving path (unbounded_wait lint)
                // and keeps the loop responsive to shutdown even if a
                // sender wedges without disconnecting.
                match rx.recv_timeout(IDLE_HEARTBEAT) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => {
                        let q = scheduler.stats();
                        faults.retries = q.retries;
                        faults.rejected = q.rejected;
                        return finish(
                            responses,
                            clock,
                            iterations,
                            iteration_log,
                            occupancy(batch_fill_sum, slab_fill_sum, peak_batch, iterations),
                            faults,
                            wall.elapsed_s(),
                            controller_snap,
                            verify_rows,
                        );
                    }
                }
            } else {
                rx.try_recv().ok()
            };
            match msg {
                Some(Msg::Submit {
                    prompt,
                    max_new_tokens,
                    budget_s,
                    reply,
                    id_reply,
                }) => {
                    let id = RequestId(next_id);
                    next_id += 1;
                    let _ = id_reply.send(id);
                    waiting.insert(
                        id.0,
                        Waiting {
                            reply,
                            cancelled: false,
                        },
                    );
                    scheduler.submit(Request {
                        id,
                        prompt,
                        max_new_tokens,
                        arrival_s: clock,
                        deadline_s: budget_s.map(|b| clock + b),
                        dataset: None,
                    });
                }
                Some(Msg::Cancel(id)) => {
                    if let Some(r) = active.iter_mut().find(|r| r.id == id) {
                        r.client_cancelled = true;
                    } else if let Some(w) = waiting.get_mut(&id.0) {
                        w.cancelled = true;
                    }
                }
                Some(Msg::Shutdown) => draining = true,
                None => break,
            }
        }

        // Join: shed expired/dropped queue entries, then admit as many
        // arrivals as fit the free slots (and, under a slab budget, the
        // free KV rows — the occupancy-maximizing first-fit scan).
        for request in scheduler.expire(clock) {
            faults.deadline_misses += 1;
            stub_reply(
                &mut waiting,
                &mut responses,
                &request,
                clock,
                RequestOutcome::DeadlineMissed,
            );
        }
        let admitted = match config.slab_rows {
            Some(budget) => {
                // Live adaptive requests are charged their controller's
                // *current* shape (committed rows + this iteration's
                // speculation rows) rather than their whole worst-case
                // slab: parked/low-rung requests free real admission
                // headroom. Non-adaptive requests always append their
                // configured shape, so their full slab stays charged.
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
        };
        for request in admitted {
            if waiting.get(&request.id.0).is_none_or(|w| w.cancelled) {
                faults.cancellations += 1;
                stub_reply(
                    &mut waiting,
                    &mut responses,
                    &request,
                    clock,
                    RequestOutcome::Cancelled,
                );
                continue;
            }
            let mut engine = config.engine.clone();
            engine.max_new_tokens = request.max_new_tokens;
            let kv_rows = match config.slab_rows {
                Some(_) => session_rows(&request),
                None => usize::MAX,
            };
            // An invalid prompt rejects this one request; it must never
            // tear down the daemon thread the rest of the batch is
            // running on.
            match Session::try_new_budgeted(
                llm,
                &ssm_refs,
                &request.prompt,
                config.seed.wrapping_add(request.id.0),
                kv_rows,
            ) {
                Ok(mut session) => {
                    session.set_degradation_policy(config.degradation);
                    let reply = match waiting.remove(&request.id.0) {
                        Some(w) => w.reply,
                        None => continue, // checked present above
                    };
                    active.push(LiveRequest {
                        id: request.id,
                        prompt_len: request.prompt.len(),
                        session,
                        config: engine,
                        reply,
                        arrival_s: request.arrival_s,
                        deadline_s: request.deadline_s,
                        cancel_at: plan.and_then(|p| p.cancel_after(request.id)),
                        client_cancelled: false,
                        steps_taken: 0,
                        last: None,
                    });
                }
                Err(_) => {
                    faults.invalid += 1;
                    stub_reply(
                        &mut waiting,
                        &mut responses,
                        &request,
                        clock,
                        RequestOutcome::Rejected,
                    );
                }
            }
        }
        // Backpressure drops (retries exhausted) leave as cancelled
        // stubs.
        for request in scheduler.take_rejected() {
            stub_reply(
                &mut waiting,
                &mut responses,
                &request,
                clock,
                RequestOutcome::Cancelled,
            );
        }

        // Retire client-cancelled requests before spending an iteration
        // on them.
        let mut i = 0;
        while let Some(r) = active.get(i) {
            if r.client_cancelled {
                faults.cancellations += 1;
                let done = active.swap_remove(i);
                responses.push(done.retire(
                    clock,
                    RequestOutcome::Cancelled,
                    &mut faults,
                    &mut controller_snap,
                ));
            } else {
                i += 1;
            }
        }

        if active.is_empty() {
            if scheduler.has_pending() {
                // Deferred submissions backing off: advance the simulated
                // clock to their retry time so admission can make
                // progress (the starvation guard ensures it does).
                if let Some(next) = scheduler.next_arrival_s() {
                    clock = clock.max(next);
                }
                continue;
            }
            if draining {
                let q = scheduler.stats();
                faults.retries = q.retries;
                faults.rejected = q.rejected;
                return finish(
                    responses,
                    clock,
                    iterations,
                    iteration_log,
                    occupancy(batch_fill_sum, slab_fill_sum, peak_batch, iterations),
                    faults,
                    wall.elapsed_s(),
                    controller_snap,
                    verify_rows,
                );
            }
            continue;
        }

        // One ragged decoding iteration over whatever is live right now
        // (admission above caps `active` at the batch limit). All
        // non-faulted sessions are verified by the LLM in a single
        // batched tree-parallel forward; a stalled/OOM request drops out
        // to the serial incremental path without touching batch-mates.
        let batch: usize = active.len();
        let mut items: Vec<BatchItem<'_>> = Vec::with_capacity(batch);
        for r in active.iter_mut() {
            let fault = plan
                .and_then(|p| p.step_fault(r.id, r.steps_taken))
                .unwrap_or_default();
            faults.ssm_garbage += usize::from(fault.ssm_garbage.is_some());
            faults.ssm_stalls += usize::from(fault.ssm_stall);
            faults.kv_ooms += usize::from(fault.kv_oom);
            faults.injected += usize::from(fault.ssm_garbage.is_some())
                + usize::from(fault.ssm_stall)
                + usize::from(fault.kv_oom);
            items.push(BatchItem {
                session: &mut r.session,
                config: &r.config,
                fault,
            });
        }
        let (stats, rows) = verifier.step_batch_counted(llm, &ssm_refs, &mut items);
        verify_rows.absorb(&rows);
        drop(items);
        for (r, last) in active.iter_mut().zip(stats) {
            r.last = last;
            r.steps_taken += 1;
        }
        iterations += 1;
        let mean_tree = active
            .iter()
            .filter_map(|r| r.last.map(|s| s.tree_size as f64))
            .sum::<f64>()
            / batch as f64;
        let mean_ctx = active
            .iter()
            .map(|r| r.session.tokens().len())
            .sum::<usize>()
            / batch;
        let mut dt = config
            .timing
            .iteration_s(&config.engine.mode, batch, mean_tree, mean_ctx);
        if let Some(factor) = plan.and_then(|p| p.verifier_slowdown(iterations - 1)) {
            faults.slowdowns += 1;
            faults.injected += 1;
            dt *= factor;
        }
        iteration_log.push(IterationRecord {
            start_s: clock,
            duration_s: dt,
            batch,
            mean_tree_size: mean_tree,
            emitted: active
                .iter()
                .filter_map(|r| r.last.map(|s| s.emitted))
                .sum(),
        });
        batch_fill_sum += batch as f64 / config.max_batch_size as f64;
        let cap: usize = active.iter().map(|r| r.session.kv_capacity()).sum();
        if cap > 0 {
            let rows: usize = active.iter().map(|r| r.session.kv_rows()).sum();
            slab_fill_sum += rows as f64 / cap as f64;
        }
        peak_batch = peak_batch.max(batch);
        clock += dt;

        // Retire finished, plan-cancelled and expired requests and answer
        // their tickets — the other half of the ragged lifecycle; the
        // freed slots and slab rows are re-filled by the next
        // iteration's admission.
        let mut i = 0;
        while let Some(r) = active.get(i) {
            let outcome = if r.session.is_finished() {
                Some(RequestOutcome::Completed)
            } else if r
                .cancel_at
                .is_some_and(|n| r.session.generated().len() >= n)
            {
                faults.cancellations += 1;
                Some(RequestOutcome::Cancelled)
            } else if r.deadline_s.is_some_and(|d| d <= clock) {
                faults.deadline_misses += 1;
                Some(RequestOutcome::DeadlineMissed)
            } else {
                None
            };
            match outcome {
                Some(outcome) => {
                    let done = active.swap_remove(i);
                    responses.push(done.retire(clock, outcome, &mut faults, &mut controller_snap));
                }
                None => i += 1,
            }
        }
    }
}

fn occupancy(
    batch_fill_sum: f64,
    slab_fill_sum: f64,
    peak_batch: usize,
    iterations: usize,
) -> OccupancyStats {
    let denom = iterations.max(1) as f64;
    OccupancyStats {
        mean_batch_fill: batch_fill_sum / denom,
        mean_slab_fill: slab_fill_sum / denom,
        peak_batch,
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    mut responses: Vec<Response>,
    clock: f64,
    iterations: usize,
    iteration_log: Vec<IterationRecord>,
    occupancy: OccupancyStats,
    faults: FaultCounters,
    wall_s: f64,
    controller: ControllerSnapshot,
    verify_rows: BatchRowStats,
) -> ServeReport {
    responses.sort_by_key(|r| r.id);
    ServeReport {
        responses,
        makespan_s: clock,
        iterations,
        iteration_log,
        occupancy,
        faults,
        wall_s,
        controller,
        verify_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::scheduler::QueuePolicy;
    use crate::server::TimingConfig;
    use specinfer_model::{DecodeMode, ModelConfig};
    use specinfer_spec::{DegradationPolicy, EngineConfig, InferenceMode, StochasticVerifier};
    use specinfer_tokentree::ExpansionConfig;

    fn daemon_config(batch: usize) -> ServerConfig {
        ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode: InferenceMode::TreeSpeculative {
                    expansion: ExpansionConfig::new(vec![2, 1, 1]),
                },
                max_new_tokens: 8,
                eos_token: None,
            },
            max_batch_size: batch,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed: 11,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows: None,
        }
    }

    fn daemon_with(config: ServerConfig) -> ServerDaemon {
        let llm = Arc::new(Transformer::from_seed(ModelConfig::smoke(), 1));
        let ssm = Arc::new(Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            2,
        ));
        ServerDaemon::spawn(llm, vec![ssm], config).expect("daemon spawns")
    }

    fn daemon(batch: usize) -> ServerDaemon {
        daemon_with(daemon_config(batch))
    }

    #[test]
    fn live_submissions_complete() {
        let d = daemon(4);
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                d.submit(vec![1, 2, (i % 4) + 3], 8)
                    .expect("daemon accepts")
            })
            .collect();
        let mut got = Vec::new();
        for t in tickets {
            let r = t.wait().expect("ticket resolves");
            assert!(r.generated.len() >= 8);
            assert_eq!(r.outcome, RequestOutcome::Completed);
            got.push(r.id);
        }
        let report = d.shutdown().expect("clean shutdown");
        assert_eq!(report.responses.len(), 6);
        assert!(report.iterations > 0);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn submissions_from_multiple_threads() {
        let d = Arc::new(daemon(3));
        let mut joins = Vec::new();
        for t in 0..4 {
            let d2 = Arc::clone(&d);
            joins.push(std::thread::spawn(move || {
                d2.submit(vec![1, (t % 8) as u32 + 2], 6)
                    .expect("daemon accepts")
                    .wait()
            }));
        }
        for j in joins {
            let r = j
                .join()
                .expect("submitter thread panicked")
                .expect("ticket resolves");
            assert!(r.generated.len() >= 6);
        }
        let d = Arc::try_unwrap(d).expect("all submitters done");
        let report = d.shutdown().expect("clean shutdown");
        assert_eq!(report.responses.len(), 4);
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let d = daemon(2);
        let t1 = d.submit(vec![5, 5], 8).expect("daemon accepts");
        let t2 = d.submit(vec![6, 6], 8).expect("daemon accepts");
        let report = d.shutdown().expect("clean shutdown");
        assert_eq!(report.responses.len(), 2);
        // Tickets still resolve after shutdown (responses were sent
        // before the daemon exited).
        assert!(t1.wait().expect("ticket resolves").generated.len() >= 8);
        assert!(t2.wait().expect("ticket resolves").generated.len() >= 8);
    }

    #[test]
    fn drop_without_shutdown_is_clean() {
        let d = daemon(2);
        let _t = d.submit(vec![3, 3], 4).expect("daemon accepts");
        drop(d); // must not hang or panic
    }

    #[test]
    fn client_cancellation_returns_partial_output() {
        let d = daemon(2);
        // A long request we cancel immediately, racing the decode loop:
        // whichever wins, the ticket must resolve with a consistent
        // response.
        let t = d.submit(vec![1, 2], 10_000).expect("daemon accepts");
        d.cancel(t.id);
        let r = t.wait().expect("ticket resolves");
        let report = d.shutdown().expect("clean shutdown");
        assert_eq!(report.responses.len(), 1);
        match r.outcome {
            RequestOutcome::Cancelled => {
                assert!(r.generated.len() < 10_000, "cut mid-stream");
                assert_eq!(report.faults.cancellations, 1);
            }
            RequestOutcome::Completed => {
                // The decode loop can win the race outright: generation
                // caps at the model's max_seq_len long before 10k
                // tokens, and the late cancel becomes a no-op.
                assert!(r.generated.len() < 10_000, "capacity-capped");
                assert_eq!(report.faults.cancellations, 0);
            }
            RequestOutcome::DeadlineMissed => panic!("no deadline was set"),
            RequestOutcome::Rejected => panic!("the prompt was valid"),
        }
    }

    #[test]
    fn cancelling_unknown_ids_is_a_noop() {
        let d = daemon(2);
        d.cancel(RequestId(999));
        let t = d.submit(vec![4, 4], 6).expect("daemon accepts");
        assert_eq!(
            t.wait().expect("ticket resolves").outcome,
            RequestOutcome::Completed
        );
        d.shutdown().expect("clean shutdown");
    }

    #[test]
    fn deadline_budget_sheds_slow_requests() {
        let d = daemon(2);
        // The cost model charges whole milliseconds per iteration; a
        // microsecond budget cannot cover even one.
        let t = d
            .submit_with_deadline(vec![7, 7], 10_000, 1e-9)
            .expect("daemon accepts");
        let r = t.wait().expect("ticket resolves");
        assert_eq!(r.outcome, RequestOutcome::DeadlineMissed);
        assert!(r.generated.len() < 10_000);
        let report = d.shutdown().expect("clean shutdown");
        assert_eq!(report.faults.deadline_misses, 1);
    }

    #[test]
    fn daemon_absorbs_injected_faults_losslessly() {
        let clean = daemon(2);
        let t = clean.submit(vec![1, 2, 3], 12).expect("daemon accepts");
        let clean_out = t.wait().expect("ticket resolves").generated;
        clean.shutdown().expect("clean shutdown");

        let mut config = daemon_config(2);
        config.faults = Some(FaultPlan::new(
            7,
            FaultSpec {
                ssm_garbage_rate: 0.6,
                ssm_stall_rate: 0.2,
                verifier_slowdown_rate: 0.4,
                verifier_slowdown_factor: 3.0,
                ..FaultSpec::none()
            },
        ));
        let chaotic = daemon_with(config);
        let t = chaotic.submit(vec![1, 2, 3], 12).expect("daemon accepts");
        let chaos_out = t.wait().expect("ticket resolves").generated;
        let report = chaotic.shutdown().expect("clean shutdown");
        assert!(report.faults.injected > 0, "plan must fire");
        assert_eq!(clean_out, chaos_out, "greedy output must be fault-proof");
    }
}
