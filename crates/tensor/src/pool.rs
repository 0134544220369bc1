//! The process-wide persistent worker pool behind every compute fan-out.
//!
//! Kernels, the batched attention partition, fused SSM speculation and
//! the serving loops all split work into independent *chunks*. Opening a
//! `std::thread::scope` per call cost 33–57 µs of spawn+join on a
//! 2-thread AVX2+FMA host — more than a whole tree-shaped matmul — so the
//! workspace keeps one pool instead: `machine_threads() − 1` workers are
//! spawned on first use and park between jobs, and the calling thread
//! works alongside them.
//!
//! [`run`] hands a job over in four steps, the protocol the
//! `tests/loom_pool.rs` models explore under every interleaving:
//!
//! 1. **publish** — the caller stores a pointer to the job (which lives
//!    on its stack) in `JOB`, bumps `EPOCH` and unparks one worker per
//!    spare chunk;
//! 2. **park/wake** — a worker parks until `EPOCH` moves past the last
//!    epoch it saw, spinning briefly first so that back-to-back jobs do
//!    not pay a wake-up each. Park/unpark keeps a wake-up token, so an
//!    unpark that lands between the check and the park is not lost;
//! 3. **work** — a worker *attaches* (`ATTACHED += 1`) before it loads
//!    `JOB`, and every participant claims chunk indices from the job's
//!    atomic cursor until none are left;
//! 4. **complete** — the caller, out of chunks, retracts the job (`JOB =
//!    null`) and yields until `ATTACHED == 0`; a worker detaches only
//!    after its last use of the job. Every worker that loaded the job
//!    attached before the retraction, so once the caller reads zero no
//!    worker can still hold the job, and every chunk has finished.
//!
//! The caller never parks: the wait in step 4 is at most one chunk long,
//! and parking there would add a wake-up (tens of µs on a VM) to every
//! job. A panic in any chunk is caught where it happens, the remaining
//! chunks still run, and the first payload is re-raised on the caller
//! after step 4. Work runs inline, never through the pool, when there is
//! one chunk, the thread cap is 1, the machine has one thread, the
//! calling thread is itself running a pool job (nested kernels inside a
//! pooled session step), or another thread's job is in flight. Every
//! chunk body in the workspace writes disjoint outputs with a
//! partition-independent reduction order, so inline and pooled execution
//! give identical bits.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::Thread;

/// Configured thread cap; 0 means "use available parallelism".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of threads a pool job may use.
///
/// `0` restores the default (the machine's available parallelism);
/// `1` forces every fan-out inline on the calling thread. The kernels
/// also size their partitions from it, so a cap above the machine's
/// thread count still exercises that many chunks. The setting is
/// process-global and takes effect on the next call. Output values are
/// bitwise identical at every setting; the cap exists for benchmarking
/// and for tests that want to exercise a specific path.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The current thread cap (0 = automatic).
pub fn max_threads() -> usize {
    MAX_THREADS.load(Ordering::Relaxed)
}

/// The thread count fan-outs will actually use: the configured cap, or
/// the machine's available parallelism when the cap is 0.
pub fn effective_threads() -> usize {
    match max_threads() {
        0 => machine_threads(),
        n => n,
    }
}

/// The machine's available parallelism, latched once per process:
/// `available_parallelism` is a syscall (~10 µs), and querying it on
/// every kernel call used to dominate decode-shaped matvecs outright.
fn machine_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// Set on pool workers for their whole life and on a caller while it
    /// works inside [`run`]: any `run` from such a thread goes inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// One published job: the chunk body, its claim cursor and the first
/// panic any chunk raised.
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs chunks until the cursor passes the last one.
    fn work(&self) {
        loop {
            // Relaxed: the cursor only hands out distinct indices; chunk
            // results reach the caller through `ATTACHED` in step 4.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
                // Only one payload is re-raised: when two chunks panic at
                // once, the one that finds the slot taken drops its own.
                if let Ok(mut slot) = self.panic.try_lock() {
                    slot.get_or_insert(payload);
                }
            }
        }
    }
}

/// The published job, lifetime-erased; null between jobs.
static JOB: AtomicPtr<Job<'static>> = AtomicPtr::new(ptr::null_mut());
/// Bumped on every publish; workers park until it moves.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Workers between their attach and detach (step 3–4).
static ATTACHED: AtomicUsize = AtomicUsize::new(0);
/// Held by the one caller whose job is published.
static BUSY: AtomicBool = AtomicBool::new(false);

/// Most workers the pool keeps (hosts with more threads leave the rest
/// to other work): a fixed table, so publishing never allocates.
const MAX_WORKERS: usize = 255;
/// One handle slot per possible worker.
type WorkerSlots = [OnceLock<Thread>; MAX_WORKERS];
/// Worker handles for unparking, filled in by each worker as it starts.
static WORKERS: WorkerSlots = [const { OnceLock::new() }; MAX_WORKERS];

/// Polls of `EPOCH` a worker makes before parking after a job: about
/// 40 µs on the 2-thread host. Kernels of one forward pass are published
/// a few µs apart, and waking a parked worker there costs 36–50 µs, so
/// a worker that polls picks the next kernel up at once.
const SPIN_POLLS: usize = 2_000;

/// The number of pool workers, spawning them on first use. A worker that
/// fails to spawn is simply absent: callers always finish the chunks
/// nobody else claims.
fn workers() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        let mut count = 0;
        for slot in WORKERS.iter().take(machine_threads() - 1) {
            if std::thread::Builder::new()
                .spawn(move || worker_loop(slot))
                .is_ok()
            {
                count += 1;
            }
        }
        count
    })
}

/// A worker's life: register, then wait for each new epoch and work on
/// whatever job is published by then.
fn worker_loop(slot: &'static OnceLock<Thread>) {
    let _ = slot.set(std::thread::current());
    IN_JOB.with(|f| f.set(true));
    let mut seen = 0;
    loop {
        let mut polls = 0;
        let epoch = loop {
            let epoch = EPOCH.load(Ordering::SeqCst);
            if epoch != seen {
                break epoch;
            }
            if polls < SPIN_POLLS {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        };
        seen = epoch;
        ATTACHED.fetch_add(1, Ordering::SeqCst);
        // SAFETY: this worker attached before loading a non-null `JOB`,
        // so the job's caller cannot return from `run` (freeing it)
        // until `ATTACHED` drops back to 0 below.
        if let Some(job) = unsafe { JOB.load(Ordering::SeqCst).as_ref() } {
            job.work();
        }
        ATTACHED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `body(i)` for every `i in 0..chunks` and returns once all of
/// them have finished, spreading chunks over the calling thread and up
/// to `effective_threads() − 1` pool workers. Chunks are claimed one at
/// a time from a shared cursor, so uneven chunks balance themselves.
///
/// # Panics
///
/// Re-raises the first panic of any chunk, after every chunk has run.
pub fn run(chunks: usize, body: impl Fn(usize) + Sync) {
    let inline = |body: &dyn Fn(usize)| (0..chunks).for_each(body);
    let threads = effective_threads().min(chunks);
    if threads <= 1 || IN_JOB.with(Cell::get) {
        return inline(&body);
    }
    let helpers = (threads - 1).min(workers());
    if helpers == 0 || BUSY.swap(true, Ordering::Acquire) {
        return inline(&body);
    }
    let job = Job {
        body: &body,
        chunks,
        next: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    JOB.store(ptr::from_ref(&job).cast_mut().cast(), Ordering::SeqCst);
    EPOCH.fetch_add(1, Ordering::SeqCst);
    for slot in &WORKERS[..helpers] {
        if let Some(worker) = slot.get() {
            worker.unpark();
        }
    }
    IN_JOB.with(|f| f.set(true));
    job.work();
    IN_JOB.with(|f| f.set(false));
    JOB.store(ptr::null_mut(), Ordering::SeqCst);
    while ATTACHED.load(Ordering::SeqCst) != 0 {
        std::thread::yield_now();
    }
    BUSY.store(false, Ordering::Release);
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

/// [`run`] over the elements of `items`: chunk `i` gets `&mut items[i]`.
pub fn for_each_mut<T: Send>(items: &mut [T], body: impl Fn(usize, &mut T) + Sync) {
    let len = items.len();
    for_each_range_mut(items, len, |i| (i, i + 1), |i, item| body(i, &mut item[0]));
}

/// [`run`] over `data` cut into `chunk_len`-element chunks (the last one
/// may be shorter): chunk `c` gets `&mut data[c·chunk_len..(c+1)·chunk_len]`.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    let chunks = len.div_ceil(chunk_len.max(1));
    let range = |c: usize| (c * chunk_len, ((c + 1) * chunk_len).min(len));
    for_each_range_mut(data, chunks, range, body);
}

/// [`run`] over `data` cut at the ascending offsets `ends`: chunk `t`
/// gets `&mut data[ends[t − 1]..ends[t]]` (from 0 for `t = 0`).
///
/// # Panics
///
/// Panics if `ends` decreases or runs past `data.len()`.
pub fn for_each_split_mut<T: Send>(
    data: &mut [T],
    ends: &[usize],
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let range = |t: usize| (if t == 0 { 0 } else { ends[t - 1] }, ends[t]);
    for_each_range_mut(data, ends.len(), range, body);
}

/// A `*mut T` the chunk bodies may share.
struct SharedMut<T>(*mut T);

// SAFETY: `for_each_range_mut` hands each chunk a disjoint sub-slice, so
// sharing the base pointer only ever moves `&mut [T]` between threads.
unsafe impl<T: Send> Sync for SharedMut<T> {}

/// Runs `body(c, &mut data[start..end])` for every chunk `c in
/// 0..chunks`, where `(start, end) = range(c)`.
///
/// `range` must be a pure function of `c` whose ranges do not overlap;
/// every caller above derives it from immutable values (`len`,
/// `chunk_len`, the borrowed `ends`), and consecutive ranges abut, so
/// checking `start ≤ end ≤ len` for every chunk proves them disjoint.
fn for_each_range_mut<T: Send>(
    data: &mut [T],
    chunks: usize,
    range: impl Fn(usize) -> (usize, usize) + Sync,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    let base = SharedMut(data.as_mut_ptr());
    let base = &base;
    run(chunks, |c| {
        let (start, end) = range(c);
        assert!(
            start <= end && end <= len,
            "chunk {c} is {start}..{end} of {len}"
        );
        // SAFETY: in bounds by the assert; disjoint from every other
        // chunk's range (see above), and `run` hands each `c` to exactly
        // one call while `data` stays mutably borrowed.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        body(c, chunk);
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the crate's tests that toggle the global thread cap.
    pub(crate) static KNOB: Mutex<()> = Mutex::new(());

    #[test]
    fn every_chunk_runs_exactly_once_at_every_cap() {
        let _guard = KNOB.lock().unwrap_or_else(PoisonError::into_inner);
        for cap in [1, 2, 3, 8] {
            set_max_threads(cap);
            for chunks in [0, 1, 2, 5, 64] {
                let mut hits = vec![0u32; chunks];
                for_each_mut(&mut hits, |_, h| *h += 1);
                assert!(hits.iter().all(|&h| h == 1), "cap {cap}, {chunks} chunks");
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn nested_runs_finish_inline() {
        let _guard = KNOB.lock().unwrap_or_else(PoisonError::into_inner);
        set_max_threads(4);
        let mut sums = vec![0usize; 6];
        for_each_mut(&mut sums, |i, s| {
            let inner = AtomicUsize::new(0);
            run(5, |j| {
                inner.fetch_add(i * 10 + j, Ordering::Relaxed);
            });
            *s = inner.into_inner();
        });
        set_max_threads(0);
        let want: Vec<usize> = (0..6).map(|i| 5 * i * 10 + 10).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn a_chunk_panic_reaches_the_caller_after_every_chunk_ran() {
        let _guard = KNOB.lock().unwrap_or_else(PoisonError::into_inner);
        set_max_threads(4);
        let done = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(8, |i| {
                done.fetch_add(1, Ordering::Relaxed);
                assert_ne!(i, 3, "chunk 3 fails");
            })
        }));
        set_max_threads(0);
        assert!(caught.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 8);
        // The pool is usable again afterwards.
        let mut hits = vec![0u8; 4];
        for_each_mut(&mut hits, |_, h| *h = 1);
        assert_eq!(hits, vec![1; 4]);
    }
}
