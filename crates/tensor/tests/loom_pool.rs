//! Model-checked hand-off of the persistent worker pool (`src/pool.rs`).
//!
//! The models below re-create the pool's protocol with loom-lite
//! primitives (`shims/loom`), whose explorer runs every interleaving (up
//! to a preemption bound) and reports assertion failures, deadlocks and
//! spin-waits nobody can end:
//!
//! 1. **publish** — the caller stores the job in `job`, bumps `epoch`,
//!    then unparks the workers;
//! 2. **park/wake** — a worker parks until `epoch` moves past the last
//!    epoch it saw (the real worker also polls a while before parking,
//!    which only adds checks before the same park);
//! 3. **work** — a worker attaches (`attached += 1`) *before* it loads
//!    `job`, and every participant claims chunks from the job's cursor;
//! 4. **complete** — the caller retracts the job, yields until
//!    `attached == 0`, and only then frees the job.
//!
//! Each execution runs two jobs back to back, so workers re-park and must
//! join the second epoch, then publishes a shutdown (the real pool never
//! shuts down; the models need every execution to end). Checked under
//! every schedule, for 1–3 workers: every chunk runs exactly once, the
//! merged rows equal the serial bits, no worker touches a job after the
//! caller freed it, and every worker wakes for the shutdown. Two broken
//! variants must be caught: a caller that unparks before bumping `epoch`
//! (a woken worker re-checks too early, parks again and sleeps through
//! the publish: a lost wakeup), and a worker that loads `job` before it
//! attaches (the caller can see `attached == 0` in between and free the
//! job under it).

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread::{self, Thread};

/// Rows per job; one chunk per row.
const ROWS: usize = 2;
const K: usize = 2;
const N: usize = 2;

/// One output row: a left-to-right f32 accumulation over `k`, so its bits
/// depend only on its inputs — never on which thread computed it.
fn row(a: &[f32], b: &[f32], i: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; N];
    for kk in 0..K {
        let av = a[i * K + kk];
        for (j, o) in out.iter_mut().enumerate() {
            *o += av * b[kk * N + j];
        }
    }
    out
}

/// Awkward-valued inputs: f32 addition is non-associative, so any
/// ordering slip would show in the bits.
fn inputs(seed: usize) -> (Vec<f32>, Vec<f32>) {
    let a = (0..ROWS * K)
        .map(|i| 0.1 + (i + seed) as f32 * 0.37)
        .collect();
    let b = (0..K * N)
        .map(|i| -0.25 + (i + seed) as f32 * 0.19)
        .collect();
    (a, b)
}

struct Job {
    a: Vec<f32>,
    b: Vec<f32>,
    next: AtomicUsize,
    rows: Mutex<Vec<Option<Vec<f32>>>>,
    /// Set once the caller's `run` has returned: the real job is gone.
    freed: AtomicBool,
}

impl Job {
    fn new(seed: usize) -> Arc<Job> {
        let (a, b) = inputs(seed);
        Arc::new(Job {
            a,
            b,
            next: AtomicUsize::new(0),
            rows: Mutex::new(vec![None; ROWS]),
            freed: AtomicBool::new(false),
        })
    }

    /// Step 3: claim chunks until none are left.
    fn work(&self) {
        loop {
            assert!(
                !self.freed.load(Ordering::SeqCst),
                "a worker used the job after the caller freed it"
            );
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= ROWS {
                return;
            }
            let r = row(&self.a, &self.b, i);
            let mut rows = self.rows.lock().unwrap();
            assert!(rows[i].is_none(), "chunk {i} ran twice");
            rows[i] = Some(r);
        }
    }
}

/// Jobs per execution.
const JOBS: usize = 2;

struct Pool {
    /// Every job of the execution; `job` holds an index + 1.
    jobs: Vec<Arc<Job>>,
    /// The published job (index + 1), 0 between jobs.
    job: AtomicUsize,
    epoch: AtomicUsize,
    attached: AtomicUsize,
    shutdown: AtomicBool,
}

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Correct,
    /// The caller unparks the workers before it bumps `epoch`.
    UnparkBeforePublish,
    /// The worker loads `job` before it attaches.
    LoadBeforeAttach,
}

fn worker(pool: &Pool, variant: Variant) {
    let mut seen = 0;
    loop {
        let epoch = loop {
            let epoch = pool.epoch.load(Ordering::SeqCst);
            if epoch != seen {
                break epoch;
            }
            thread::park();
        };
        seen = epoch;
        if pool.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let id = if variant == Variant::LoadBeforeAttach {
            let id = pool.job.load(Ordering::SeqCst);
            pool.attached.fetch_add(1, Ordering::SeqCst);
            id
        } else {
            pool.attached.fetch_add(1, Ordering::SeqCst);
            pool.job.load(Ordering::SeqCst)
        };
        if id != 0 {
            pool.jobs[id - 1].work();
        }
        pool.attached.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Steps 1's epoch bump and wake-ups.
fn wake(pool: &Pool, workers: &[Thread], variant: Variant) {
    if variant == Variant::UnparkBeforePublish {
        workers.iter().for_each(Thread::unpark);
        pool.epoch.fetch_add(1, Ordering::SeqCst);
    } else {
        pool.epoch.fetch_add(1, Ordering::SeqCst);
        workers.iter().for_each(Thread::unpark);
    }
}

/// Steps 1–4 from the caller's side; returns the merged rows.
fn run(pool: &Pool, id: usize, workers: &[Thread], variant: Variant) -> Vec<f32> {
    let job = &pool.jobs[id];
    pool.job.store(id + 1, Ordering::SeqCst);
    wake(pool, workers, variant);
    job.work();
    pool.job.store(0, Ordering::SeqCst);
    while pool.attached.load(Ordering::SeqCst) != 0 {
        thread::yield_now();
    }
    let rows = job.rows.lock().unwrap().clone();
    job.freed.store(true, Ordering::SeqCst);
    rows.into_iter()
        .flat_map(|r| r.expect("every chunk ran before run returned"))
        .collect()
}

fn model(workers: usize, variant: Variant) -> loom::Report {
    let mut builder = loom::Builder::new();
    // Two jobs' schedule space is too large to enumerate in a test, so
    // every model runs under CHESS-style preemption bounding: all
    // schedules in which blocking points alone decide the order, plus up
    // to BOUND forced switches anywhere.
    builder.preemption_bound = Some(match workers {
        1 => 3,
        2 => 2,
        _ => 1,
    });
    builder.explore(move || body(workers, variant))
}

/// One execution: spawn the workers, run the jobs, shut down.
fn body(workers: usize, variant: Variant) {
    let pool = Arc::new(Pool {
        jobs: (0..JOBS).map(Job::new).collect(),
        job: AtomicUsize::new(0),
        epoch: AtomicUsize::new(0),
        attached: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
    });
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let pool = Arc::clone(&pool);
            thread::spawn(move || worker(&pool, variant))
        })
        .collect();
    let threads: Vec<Thread> = handles.iter().map(|h| h.thread().clone()).collect();
    for id in 0..JOBS {
        let merged = run(&pool, id, &threads, variant);
        let (a, b) = inputs(id);
        let serial: Vec<f32> = (0..ROWS).flat_map(|i| row(&a, &b, i)).collect();
        let same_bits = merged
            .iter()
            .zip(&serial)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same_bits, "pooled rows drifted from the serial bits");
    }
    pool.shutdown.store(true, Ordering::SeqCst);
    wake(&pool, &threads, variant);
    for h in handles {
        h.join().expect("worker exits cleanly");
    }
}

#[test]
fn hand_off_is_complete_and_exact_for_1_to_3_workers() {
    for workers in 1..=3 {
        let report = model(workers, Variant::Correct);
        assert!(
            report.failure.is_none(),
            "{workers} workers: {:?}",
            report.failure
        );
        assert!(report.completed, "{workers} workers: exploration truncated");
        assert!(
            report.schedules > 1,
            "{workers} workers must admit multiple interleavings"
        );
    }
}

#[test]
fn unparking_before_the_publish_loses_a_wakeup() {
    let report = model(1, Variant::UnparkBeforePublish);
    let failure = report
        .failure
        .expect("the explorer must catch the lost wakeup");
    assert!(failure.contains("deadlock"), "{failure}");
}

#[test]
fn loading_the_job_before_attaching_is_a_use_after_free() {
    let report = model(1, Variant::LoadBeforeAttach);
    let failure = report
        .failure
        .expect("the explorer must catch the early load");
    assert!(failure.contains("freed it"), "{failure}");
}
