//! The load generator: drives a real [`ServerDaemon`] through one round
//! of a workload.
//!
//! Two client threads: the calling thread submits on the workload's
//! schedule, and a collector thread waits the tickets in submission order.
//! Every time is measured in wall-clock seconds from the round's start,
//! and a request's latency runs from its *due* time, so a stalled
//! submitter charges its lateness to every request behind it. Because
//! tickets are waited in order, a request that finishes before an earlier
//! one is seen when the earlier one is; the workloads keep that rare (the
//! open loop gives every request the same budget).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use specinfer_serving::{RequestOutcome, ServeReport, ServerDaemon, Ticket};
use specinfer_tokentree::TokenId;

use crate::models::Models;
use crate::workload::{Req, Workload};

/// What the clients saw of one request.
#[derive(Debug, Clone)]
pub struct ClientRecord {
    /// Due time (seconds after the round start).
    pub due_s: f64,
    /// When `submit` was called; `submit_start_s - due_s` is the
    /// generator's lag.
    pub submit_start_s: f64,
    /// When `submit` returned (it blocks until the daemon's message pump
    /// runs between iterations).
    pub submit_end_s: f64,
    /// When the collector held the response.
    pub done_s: f64,
    /// The generated tokens, if the request completed.
    pub generated: Option<Vec<TokenId>>,
}

impl ClientRecord {
    /// Request latency from its due time.
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.due_s
    }
}

/// One round: every request of a request set through a fresh daemon.
#[derive(Debug)]
pub struct Round {
    /// The requests served, in submission order.
    pub requests: Vec<Req>,
    /// Per-request client records, in submission order.
    pub records: Vec<ClientRecord>,
    /// The daemon's own report.
    pub report: ServeReport,
    /// Wall time from the first due time to the last response.
    pub wall_s: f64,
}

/// Serves `requests` through a freshly spawned daemon holding `models`
/// under `workload`'s configuration with daemon seed `seed`.
pub fn run_round(
    models: &Models,
    workload: Workload,
    requests: &[Req],
    seed: u64,
) -> Result<Round, String> {
    let daemon = ServerDaemon::spawn(
        models.llm.clone(),
        models.drafters(workload.drafters()),
        workload.server_config(seed),
    )
    .map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<(usize, Result<Ticket, String>)>();
    let start = Instant::now();
    let since = move |t: Instant| t.duration_since(start).as_secs_f64();
    let mut records: Vec<ClientRecord> = requests
        .iter()
        .map(|r| ClientRecord {
            due_s: r.due_s,
            submit_start_s: 0.0,
            submit_end_s: 0.0,
            done_s: 0.0,
            generated: None,
        })
        .collect();
    let done = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            for (i, ticket) in rx {
                let generated = ticket
                    .and_then(|t| t.wait().map_err(|e| e.to_string()))
                    .ok();
                let generated = generated
                    .filter(|resp| resp.outcome == RequestOutcome::Completed)
                    .map(|resp| resp.generated);
                done.push((i, since(Instant::now()), generated));
            }
            done
        });
        for (i, req) in requests.iter().enumerate() {
            let wait = req.due_s - since(Instant::now());
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let rec = &mut records[i];
            rec.submit_start_s = since(Instant::now());
            let ticket = daemon
                .submit(req.prompt.clone(), req.budget)
                .map_err(|e| e.to_string());
            rec.submit_end_s = since(Instant::now());
            if tx.send((i, ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().unwrap_or_default()
    });
    for (i, done_s, generated) in done {
        if let Some(rec) = records.get_mut(i) {
            rec.done_s = done_s;
            rec.generated = generated;
        }
    }
    let report = daemon.shutdown().map_err(|e| e.to_string())?;
    let first_due = requests
        .iter()
        .map(|r| r.due_s)
        .fold(f64::INFINITY, f64::min);
    let last_done = records.iter().map(|r| r.done_s).fold(0.0, f64::max);
    Ok(Round {
        requests: requests.to_vec(),
        records,
        report,
        wall_s: last_done - first_due.min(last_done),
    })
}
