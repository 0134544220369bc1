//! `perfbench prepare` trains the model suite once; `perfbench run`
//! measures one workload. See the crate docs and `perfbench/README.md`.

use std::sync::Arc;
use std::time::Instant;

use specinfer_model::Transformer;
use specinfer_serving::ServerDaemon;
use specinfer_tokentree::{ExpansionConfig, TokenId};

use specinfer_perfbench::check::{self, delivered, overshoot};
use specinfer_perfbench::drive::{run_round, Round};
use specinfer_perfbench::models::{self, Models};
use specinfer_perfbench::probe::{self, Probe};
use specinfer_perfbench::stats::{median, percentile, tail};
use specinfer_perfbench::traced::{self, Phase, TracedRun};
use specinfer_perfbench::workload::{self, Req, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Warm-up requests served in each set-up.
const WARMUP_REQUESTS: usize = 4;
/// Rounds per run at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Rounds per run at most, however fast the program is.
const MAX_ROUNDS: usize = 40;
/// Requests the replay probe re-runs.
const PROBE_REQUESTS: usize = 10;
/// Traced spans must cover at least this share of the traced wall.
const MIN_SPAN_COVERAGE: f64 = 0.95;
/// Relative disagreement allowed between the probe's and the traced run's
/// acceptance on the same draft shape (plus 0.02 absolute).
const ACCEPTANCE_TOLERANCE: f64 = 0.35;
/// Traced steps of the probe's shape needed before acceptance is compared.
const MIN_COMPARABLE_STEPS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("prepare") => match models::prepare() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench prepare: {e}");
                1
            }
        },
        Some("run") => match parse_args(&argv[1..]).and_then(|a| run(&a)) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench run: {e}");
                2
            }
        },
        _ => {
            eprintln!(
                "usage: perfbench prepare | perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            2
        }
    };
    std::process::exit(code);
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_list(values: impl Iterator<Item = f64>) -> String {
    format!("[{}]", values.map(json_num).collect::<Vec<_>>().join(", "))
}

/// What a run prints: metrics, context, and every failed check.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: Vec<(&'static str, String)>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    fn note_str(&mut self, key: &'static str, value: &str) {
        self.context.push((key, format!("\"{value}\"")));
    }

    /// Prints the human-readable table to stderr and the context and
    /// result lines to stdout; returns whether every check passed.
    fn print(&self) -> bool {
        let correct = self.problems.is_empty();
        for p in &self.problems {
            eprintln!("perfbench: CHECK FAILED: {p}");
        }
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<34} {value:>14.6} {unit}");
        }
        let ctx: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!("{{\"context\": {{{}}}}}", ctx.join(", "));
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Loads the checkpoints, spawns a daemon and serves the workload's first
/// requests (budgets capped at 16) through it; returns the models and the
/// seconds that took. The daemon is shut down outside the timing.
fn set_up_once(workload: Workload, requests: &[Req], seed: u64) -> Result<(Models, f64), String> {
    let t = Instant::now();
    let models = models::load()?;
    let daemon = ServerDaemon::spawn(
        Arc::clone(&models.llm),
        models.drafters(workload.drafters()),
        workload.server_config(seed),
    )
    .map_err(|e| e.to_string())?;
    let tickets = requests
        .iter()
        .take(WARMUP_REQUESTS)
        .map(|r| daemon.submit(r.prompt.clone(), r.budget.min(16)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for ticket in tickets {
        ticket.wait().map_err(|e| e.to_string())?;
    }
    let elapsed = t.elapsed().as_secs_f64();
    daemon.shutdown().map_err(|e| e.to_string())?;
    Ok((models, elapsed))
}

/// Rounds through fresh daemons while another round still fits (at
/// least half of it) in `seconds`; at least [`MIN_ROUNDS`].
fn measure(
    models: &Models,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Vec<Round>, String> {
    let grammar = workload::grammar();
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last_round_s = 0.0;
    while rounds.len() < MIN_ROUNDS
        || (start.elapsed().as_secs_f64() + last_round_s / 2.0 < seconds
            && rounds.len() < MAX_ROUNDS)
    {
        let requests = workload.round_requests(&grammar, seed, rounds.len());
        let t = Instant::now();
        rounds.push(run_round(models, workload, &requests, seed)?);
        last_round_s = t.elapsed().as_secs_f64();
    }
    Ok(rounds)
}

/// End-to-end figures of one round. Only responses that passed the
/// output check count as delivered.
struct RoundFigures {
    throughput: f64,
    latency_p50: f64,
    latency_tail: f64,
    per_token_p50_ms: f64,
    per_token_tail_ms: f64,
    slo: f64,
    completed: f64,
    tail_p: f64,
    samples: usize,
}

fn figures(round: &Round, ok: &[bool], slo_ms: f64) -> RoundFigures {
    let mut tokens = 0usize;
    let mut latency = Vec::new();
    let mut per_token = Vec::new();
    for ((rec, req), &good) in round.records.iter().zip(&round.requests).zip(ok) {
        let Some(generated) = rec.generated.as_ref().filter(|_| good) else {
            continue;
        };
        let d = delivered(generated, req.budget);
        tokens += d;
        latency.push(rec.latency_s());
        per_token.push(rec.latency_s() * 1e3 / d.max(1) as f64);
    }
    let sent = round.requests.len().max(1) as f64;
    let (tail_p, latency_tail) = tail(&latency);
    RoundFigures {
        throughput: tokens as f64 / round.wall_s.max(f64::MIN_POSITIVE),
        latency_p50: percentile(&latency, 50.0),
        latency_tail,
        per_token_p50_ms: percentile(&per_token, 50.0),
        per_token_tail_ms: tail(&per_token).1,
        slo: per_token.iter().filter(|&&t| t <= slo_ms).count() as f64 / sent,
        completed: latency.len() as f64 / sent,
        tail_p,
        samples: latency.len(),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let requests = workload.requests(&workload::grammar(), args.seed);
    let config = workload.server_config(args.seed);
    let mut report = Report::default();

    // Set-up, several times; the last one's models serve the run.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut models = None;
    for _ in 0..SETUP_REPS {
        let (m, s) = set_up_once(workload, &requests, args.seed)?;
        setups.push(s);
        models = Some(m);
    }
    let models = models.ok_or("no set-up ran")?;

    let start = Instant::now();
    let rounds = measure(&models, workload, args.seed, args.seconds)?;
    let measured_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();

    // Output check: every round against serial replays.
    let llm: &Transformer = &models.llm;
    let drafters = models.drafters(workload.drafters());
    let ssm_refs: Vec<&Transformer> = drafters.iter().map(Arc::as_ref).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let check_start = Instant::now();
    // References per distinct set of prompts and budgets: outputs do not
    // depend on due times, so rounds that differ only in their schedule
    // share one.
    let same_work = |a: &[Req], b: &[Req]| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.prompt == y.prompt && x.budget == y.budget)
    };
    let mut references: Vec<(&[Req], Vec<Vec<TokenId>>)> = Vec::new();
    let mut round_ok = Vec::with_capacity(rounds.len());
    for (r, round) in rounds.iter().enumerate() {
        let known = references
            .iter()
            .position(|(reqs, _)| same_work(reqs, &round.requests));
        let k = match known {
            Some(k) => k,
            None => {
                let refs =
                    check::reference_outputs(llm, &ssm_refs, &config, &round.requests, nproc)?;
                references.push((&round.requests, refs));
                references.len() - 1
            }
        };
        let got: Vec<Option<Vec<TokenId>>> = round
            .records
            .iter()
            .map(|rec| rec.generated.clone())
            .collect();
        let bad = check::mismatches(&references[k].1, &got, &round.requests);
        if let Some(&first) = bad.first() {
            report.problems.push(format!(
                "round {r}: {} responses failed or differ from the serial replay (first: request {first})",
                bad.len()
            ));
        }
        let mut ok = vec![true; round.requests.len()];
        for i in bad {
            ok[i] = false;
        }
        round_ok.push(ok);
    }
    let check_s = check_start.elapsed().as_secs_f64();

    let completed: usize = rounds
        .iter()
        .map(|r| {
            r.records
                .iter()
                .filter(|rec| rec.generated.is_some())
                .count()
        })
        .sum();
    report.attempted = rounds.iter().map(|r| r.requests.len()).sum();
    report.failed = report.attempted - completed;

    let slo_ms = workload.per_token_slo_ms();
    let figs: Vec<RoundFigures> = rounds
        .iter()
        .zip(&round_ok)
        .map(|(round, ok)| figures(round, ok, slo_ms))
        .collect();
    let med = |f: fn(&RoundFigures) -> f64| median(&figs.iter().map(f).collect::<Vec<_>>());

    report.note_str("workload", workload.name());
    report.note("seed", args.seed);
    report.note("trace", u8::from(args.trace));
    report.note("effective_threads", specinfer_tensor::effective_threads());
    report.note_str("simd_backend", specinfer_tensor::simd::backend().name());
    report.note_str(
        "cpu_features",
        &specinfer_tensor::simd::detected_features().join(","),
    );
    report.note("nproc", nproc);
    report.note_str("weight_digest", &models::digest(&models));
    report.note("rounds", rounds.len());
    report.note("requests_per_round", requests.len());
    report.note("requests_sent", report.attempted);
    report.note("requests_succeeded", completed);
    report.note("requests_failed", report.failed);
    report.note("measured_s", json_num(measured_s));
    report.note("check_s", json_num(check_s));
    report.note("request_sets_checked", references.len());
    report.note("setup_samples_s", json_list(setups.iter().copied()));
    report.note(
        "tail_percentile",
        json_num(figs.first().map_or(0.0, |f| f.tail_p)),
    );
    report.note(
        "tail_samples_per_round",
        figs.first().map_or(0, |f| f.samples),
    );
    report.note("per_token_slo_ms", json_num(slo_ms));
    report.note(
        "round_throughput_tok_s",
        json_list(figs.iter().map(|f| f.throughput)),
    );
    report.note(
        "round_request_latency_p50_s",
        json_list(figs.iter().map(|f| f.latency_p50)),
    );
    report.note(
        "round_request_latency_tail_s",
        json_list(figs.iter().map(|f| f.latency_tail)),
    );
    report.note(
        "round_per_token_p50_ms",
        json_list(figs.iter().map(|f| f.per_token_p50_ms)),
    );

    if args.trace {
        // The traced loop and the probe replay the first round's requests.
        let first = &rounds[0];
        let traced = traced::run(llm, &ssm_refs, &config, &first.requests);
        traced_checks(&mut report, workload, first, &traced);
        let probed = probe_workload(workload, &models, first, args.seed);
        probe_checks(
            &mut report,
            workload,
            first,
            &references[0].1,
            &probed,
            &traced,
        );
        write_trace(workload, args.seed, &traced);
        per_layer(&mut report, llm, &rounds, &traced, &probed);
    } else {
        report.put("setup_s", median(&setups), "s");
        report.put("throughput_tok_s", med(|f| f.throughput), "tok/s");
        report.put("request_latency_p50_s", med(|f| f.latency_p50), "s");
        report.put("request_latency_tail_s", med(|f| f.latency_tail), "s");
        report.put(
            "per_token_latency_p50_ms",
            med(|f| f.per_token_p50_ms),
            "ms",
        );
        report.put(
            "per_token_latency_tail_ms",
            med(|f| f.per_token_tail_ms),
            "ms",
        );
        report.put("slo_attainment", med(|f| f.slo), "share");
        report.put("completed_share", med(|f| f.completed), "share");
        report.put("peak_rss_mb", rss_mb, "MiB");
    }
    Ok(report.print())
}

/// The traced loop's outputs must equal the daemon's first round, and its
/// spans must cover the traced wall.
fn traced_checks(report: &mut Report, workload: Workload, first: &Round, traced: &TracedRun) {
    report.attempted += first.requests.len();
    report.failed += traced.outputs.iter().filter(|o| o.is_empty()).count();
    let differ = first
        .requests
        .iter()
        .enumerate()
        .filter(|&(i, req)| {
            !matches!(&first.records[i].generated,
                Some(g) if check::matches(g, &traced.outputs[i], req.budget))
        })
        .count();
    if differ > 0 {
        report.problems.push(format!(
            "traced direct loop: {differ} outputs differ from the daemon's"
        ));
    }
    let coverage = traced.coverage();
    if coverage < MIN_SPAN_COVERAGE {
        report.problems.push(format!(
            "{}: traced spans cover {:.1}% of the traced wall (< 95%)",
            workload.name(),
            coverage * 100.0
        ));
    }
    report.note("span_coverage", json_num(coverage));
    report.note("traced_wall_s", json_num(traced.wall_s));
}

/// The draft shape and SSM the replay probe uses: the workload's own tree,
/// or for adaptive MSS the sequence(4) rung every session starts on,
/// drafted by the pool SSM the router picked most.
fn probe_shape(
    workload: Workload,
    models: &Models,
    first: &Round,
) -> (ExpansionConfig, Arc<Transformer>) {
    match workload {
        Workload::OpenAdaptiveMss => {
            let routes = &first.report.controller.ssm_routes;
            let top = (0..routes.len()).max_by_key(|&i| routes[i]).unwrap_or(0);
            let ssm = models.boost_pool.get(top).unwrap_or(&models.ssm);
            (ExpansionConfig::sequence(4), Arc::clone(ssm))
        }
        _ => (ExpansionConfig::paper_default(), Arc::clone(&models.ssm)),
    }
}

fn probe_workload(workload: Workload, models: &Models, first: &Round, seed: u64) -> Probe {
    let (expansion, ssm) = probe_shape(workload, models, first);
    let n = PROBE_REQUESTS.min(first.requests.len());
    probe::run(
        &models.llm,
        &ssm,
        &expansion,
        &workload.engine().decode,
        &first.requests[..n],
        seed,
    )
}

/// Greedy probe outputs must equal the serial replay, and the probe's
/// acceptance must agree with the traced run's on steps of the same shape.
fn probe_checks(
    report: &mut Report,
    workload: Workload,
    first: &Round,
    expected: &[Vec<TokenId>],
    probed: &Probe,
    traced: &TracedRun,
) {
    if workload.is_greedy() {
        let differ = probed
            .outputs
            .iter()
            .zip(expected)
            .zip(&first.requests)
            .filter(|((p, e), r)| !check::matches(e, p, r.budget))
            .count();
        if differ > 0 {
            report.problems.push(format!(
                "replay probe: {differ} greedy outputs differ from the serial replay"
            ));
        }
    }
    let size = match workload {
        Workload::OpenAdaptiveMss => ExpansionConfig::sequence(4).node_count(),
        _ => ExpansionConfig::paper_default().node_count(),
    };
    let (mut nodes, mut accepted, mut steps) = (0usize, 0usize, 0usize);
    for s in traced
        .steps
        .iter()
        .flatten()
        .filter(|s| s.tree_size == size)
    {
        nodes += s.tree_size;
        accepted += s.accepted;
        steps += 1;
    }
    let traced_acc = accepted as f64 / nodes.max(1) as f64;
    let probe_acc = probed.accepted_per_node();
    report.note("probe_accepted_per_node", json_num(probe_acc));
    report.note("traced_accepted_per_node_same_shape", json_num(traced_acc));
    report.note("traced_steps_same_shape", steps);
    let allowed = ACCEPTANCE_TOLERANCE * probe_acc.max(traced_acc) + 0.02;
    if steps >= MIN_COMPARABLE_STEPS && (probe_acc - traced_acc).abs() > allowed {
        report.problems.push(format!(
            "replay probe accepts {probe_acc:.3} per node, the traced run {traced_acc:.3}"
        ));
    }
}

fn write_trace(workload: Workload, seed: u64, traced: &TracedRun) {
    let dir = std::path::Path::new(".perfbench-out");
    let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, traced.to_trace_json()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

fn us(v: f64) -> f64 {
    v * 1e6
}

/// Per-layer metrics from the daemon rounds, the traced loop and the probe.
fn per_layer(m: &mut Report, llm: &Transformer, rounds: &[Round], traced: &TracedRun, p: &Probe) {
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let client_tail = |f: &dyn Fn(&specinfer_perfbench::drive::ClientRecord) -> f64| {
        over_rounds(&|r| ms(tail(&r.records.iter().map(f).collect::<Vec<_>>()).1))
    };
    // serving
    m.put(
        "serving.submit_ms_tail",
        client_tail(&|c| c.submit_end_s - c.submit_start_s),
        "ms",
    );
    m.put(
        "serving.generator_lag_ms_tail",
        client_tail(&|c| (c.submit_start_s - c.due_s).max(0.0)),
        "ms",
    );
    m.put(
        "serving.queue_wait_ms_p50",
        ms(percentile(&traced.queue_wait_s, 50.0)),
        "ms",
    );
    m.put(
        "serving.admit_us_per_iter",
        us(traced.total(Phase::Admit) / traced.iterations.max(1) as f64),
        "us",
    );
    m.put(
        "serving.batch_fill",
        over_rounds(&|r| r.report.occupancy.mean_batch_fill),
        "share",
    );
    m.put(
        "serving.slab_fill",
        over_rounds(&|r| r.report.occupancy.mean_slab_fill),
        "share",
    );
    m.put(
        "serving.iterations",
        over_rounds(&|r| r.report.iterations as f64),
        "count",
    );
    m.put(
        "serving.daemon_vs_direct_wall",
        over_rounds(&|r| r.wall_s) / traced.wall_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    // spec
    let step_batch = traced.durations(Phase::StepBatch);
    m.put(
        "spec.step_batch_ms_p50",
        ms(percentile(&step_batch, 50.0)),
        "ms",
    );
    m.put("spec.step_batch_ms_tail", ms(tail(&step_batch).1), "ms");
    m.put(
        "spec.session_new_ms_p50",
        ms(percentile(&traced.durations(Phase::SessionNew), 50.0)),
        "ms",
    );
    let (mut steps, mut emitted, mut nodes, mut accepted, mut incremental) = (0usize, 0, 0, 0, 0);
    for s in traced.steps.iter().flatten() {
        steps += 1;
        emitted += s.emitted;
        nodes += s.tree_size;
        accepted += s.accepted;
        incremental += usize::from(s.tree_size == 0);
    }
    let per_step = |x: usize| x as f64 / steps.max(1) as f64;
    m.put("spec.tokens_per_step", per_step(emitted), "tok/step");
    m.put(
        "spec.accepted_per_node",
        accepted as f64 / nodes.max(1) as f64,
        "ratio",
    );
    m.put("spec.tree_nodes_per_step", per_step(nodes), "nodes/step");
    m.put(
        "spec.verify_rows_per_token",
        traced.rows.forwarded_rows() as f64 / emitted.max(1) as f64,
        "rows/tok",
    );
    // The controller's incremental rung under adaptive mode; the share of
    // incremental steps (fallbacks, or incremental mode) otherwise.
    let rung_share = |r: &Round| {
        let d = &r.report.controller.rung_decisions;
        match d.iter().sum::<usize>() {
            0 => per_step(incremental),
            total => d.first().copied().unwrap_or(0) as f64 / total as f64,
        }
    };
    m.put(
        "spec.incremental_rung_share",
        over_rounds(&rung_share),
        "share",
    );
    m.put(
        "spec.fallback_steps",
        over_rounds(&|r| r.report.faults.fallback_steps as f64),
        "count",
    );
    let round_overshoot = |r: &Round| {
        r.records
            .iter()
            .zip(&r.requests)
            .filter_map(|(c, q)| c.generated.as_ref().map(|g| overshoot(g, q.budget)))
            .sum::<usize>() as f64
    };
    m.put(
        "spec.overshoot_tokens",
        over_rounds(&round_overshoot),
        "count",
    );
    m.put("spec.draft_us", us(median(&p.draft)), "us");
    m.put("spec.verify_walk_us", us(median(&p.verify_walk)), "us");
    // tokentree
    m.put("tokentree.linearize_us", us(median(&p.linearize)), "us");
    // model
    m.put(
        "model.verify_forward_us",
        us(median(&p.verify_forward)),
        "us",
    );
    m.put("model.kv_retain_us", us(median(&p.kv_retain)), "us");
    m.put("model.ssm_catchup_us", us(median(&p.ssm_catchup)), "us");
    m.put("model.decode_one_us", us(median(&p.decode_one)), "us");
    m.put("model.prefill_ms", ms(median(&p.prefill)), "ms");
    m.put("model.ssm_prefill_ms", ms(median(&p.ssm_prefill)), "ms");
    // tensor: the LLM's MLP up-projection at the decode shape (1 row) and
    // the tree-verify shape (paper_default nodes + root).
    let cfg = llm.config();
    let tree_rows = ExpansionConfig::paper_default().node_count() + 1;
    let shapes = [
        (
            1,
            [
                "tensor.matmul_m1_us",
                "tensor.matmul_m1_gflop_s",
                "tensor.matmul_m1_gb_s",
            ],
            "matmul_m1_shape",
        ),
        (
            tree_rows,
            [
                "tensor.matmul_tree_us",
                "tensor.matmul_tree_gflop_s",
                "tensor.matmul_tree_gb_s",
            ],
            "matmul_tree_shape",
        ),
    ];
    for (rows, [time, flops, bandwidth], key) in shapes {
        let mm = probe::matmul(rows, cfg.d_model, cfg.d_ff, 101);
        m.put(time, us(mm.seconds), "us");
        m.put(flops, mm.flops / mm.seconds / 1e9, "GFLOP/s");
        m.put(bandwidth, mm.bytes / mm.seconds / 1e9, "GB/s");
        let shape = format!(
            "{{\"m\": {rows}, \"k\": {}, \"n\": {}, \"flop\": {}, \"bytes\": {}}}",
            cfg.d_model, cfg.d_ff, mm.flops, mm.bytes
        );
        m.note(key, shape);
    }
    m.put("trace.span_coverage", traced.coverage(), "share");
}
