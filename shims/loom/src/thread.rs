//! Model threads: scheduler-registered tasks with join support.

use crate::rt;
use std::sync::{Arc, Mutex as StdMutex};

pub struct JoinHandle<T> {
    task: usize,
    thread: Thread,
    result: Arc<StdMutex<Option<T>>>,
}

/// Spawns a model task. The spawn itself is a decision point: the child
/// may run to completion before the parent resumes, or not start until
/// the parent blocks — the explorer tries both.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (sched, me) = rt::current();
    let result = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let task = rt::spawn_task(&sched, move || {
        let v = f();
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
    });
    sched.yield_point(me);
    JoinHandle {
        task,
        thread: Thread { task },
        result,
    }
}

/// One iteration of a spin-wait: another runnable task always runs
/// next (the fairness a real spinner relies on), and spinning while every
/// other task is blocked or finished is reported as a failure.
pub fn yield_now() {
    let (sched, me) = rt::current();
    sched.yield_to_others(me);
}

/// A handle to a model task, for [`Thread::unpark`].
#[derive(Clone, Debug)]
pub struct Thread {
    task: usize,
}

impl Thread {
    /// Wakes the task if it is parked, else makes its next [`park`]
    /// return at once — the token semantics of `std::thread::park`, so
    /// an unpark that lands just before a park is never lost.
    pub fn unpark(&self) {
        let (sched, me) = rt::current();
        sched.yield_point(me);
        sched.unpark(self.task);
    }
}

/// The calling task's handle.
pub fn current() -> Thread {
    let (_, me) = rt::current();
    Thread { task: me }
}

/// Blocks until the task's unpark token is available, then consumes it.
/// Spurious wake-ups are not modelled.
pub fn park() {
    let (sched, me) = rt::current();
    sched.park(me);
}

impl<T> JoinHandle<T> {
    /// The spawned task's handle.
    pub fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Blocks until the task finishes. Returns `Err` if the task
    /// panicked (the explorer will also record that execution as a
    /// failure).
    pub fn join(self) -> std::thread::Result<T> {
        let (sched, me) = rt::current();
        sched.join_task(me, self.task);
        match self.result.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(v) => Ok(v),
            None => Err(Box::new(
                "loom model task panicked before producing a value",
            )),
        }
    }
}
