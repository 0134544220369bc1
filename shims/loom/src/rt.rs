//! The execution scheduler: strict serialization of real OS threads.
//!
//! Every model execution runs its tasks on real threads, but at most one
//! task is ever *active*; all others sleep on a condvar. Each
//! synchronization operation (mutex acquire/release, atomic access,
//! channel send/recv, spawn, join) is a **decision point**: the active
//! task asks the scheduler who runs next. The scheduler replays a
//! prescribed prefix of choices (the current schedule), then defaults to
//! the lowest-numbered runnable task, recording every decision together
//! with the set of tasks that were enabled. The explorer in `lib.rs`
//! walks those records depth-first to enumerate schedules.
//!
//! Because exactly one task runs between any two decision points, all
//! scheduler and sync-object metadata is itself data-race free by
//! construction — the model's shared state is the only thing being
//! raced, and only at the operations the model routes through this
//! scheduler.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Panic payload used to tear an execution down once a failure is
/// recorded (or the schedule is abandoned). Task wrappers swallow it;
/// any other panic payload is a genuine model failure.
pub(crate) struct Abort;

/// One recorded scheduling decision.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    /// Tasks that were runnable at the decision point: the deciding
    /// task first when it is runnable, the rest ascending.
    pub enabled: Vec<usize>,
    /// Index into `enabled` that was chosen.
    pub chosen: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Runnable,
    Blocked,
    Finished,
}

struct SchedState {
    tasks: Vec<TaskState>,
    /// Per task: an `unpark` arrived while it was not parked.
    unpark_tokens: Vec<bool>,
    /// Per task: blocked in `park` (as opposed to a lock or a join).
    parked: Vec<bool>,
    /// Tasks waiting in `join` on the keyed task.
    join_waiters: Vec<Vec<usize>>,
    /// The one task allowed to run; `usize::MAX` before task 0 starts.
    active: usize,
    /// Prescribed choices (indices into the enabled set) to replay.
    schedule: Vec<usize>,
    /// Decisions recorded so far this execution.
    decisions: Vec<Decision>,
    /// Number of preemptive (actively-enabled) switches taken so far.
    preemptions: usize,
    /// Max preemptions allowed; switches at blocking points are free.
    preemption_bound: Option<usize>,
    /// First failure observed (deadlock, assertion, panic).
    failure: Option<String>,
    /// Set when the execution is being torn down.
    abort: bool,
    /// OS handles of all task threads, joined by the explorer.
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Scheduler {
    state: StdMutex<SchedState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler + task id of the calling model thread.
///
/// # Panics
///
/// Panics if called outside `loom::model`/`loom::explore` — the sync
/// shims only work under the explorer.
pub(crate) fn current() -> (Arc<Scheduler>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("loom sync primitives may only be used inside loom::model / loom::explore")
    })
}

/// Like [`current`], but `None` off a model thread — for `Drop` impls
/// that may run on the explorer thread during teardown.
pub(crate) fn try_current() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The outcome of running one complete execution.
pub(crate) struct ExecResult {
    pub decisions: Vec<Decision>,
    pub failure: Option<String>,
}

impl Scheduler {
    fn new(schedule: Vec<usize>, preemption_bound: Option<usize>) -> Scheduler {
        Scheduler {
            state: StdMutex::new(SchedState {
                tasks: Vec::new(),
                unpark_tokens: Vec::new(),
                parked: Vec::new(),
                join_waiters: Vec::new(),
                active: usize::MAX,
                schedule,
                decisions: Vec::new(),
                preemptions: 0,
                preemption_bound,
                failure: None,
                abort: false,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Runs `f` as task 0 under `schedule`, returning once every task
    /// has finished.
    pub(crate) fn run_execution(
        f: Arc<dyn Fn() + Send + Sync>,
        schedule: Vec<usize>,
        preemption_bound: Option<usize>,
    ) -> ExecResult {
        let sched = Arc::new(Scheduler::new(schedule, preemption_bound));
        let root = spawn_task(&sched, move || f());
        debug_assert_eq!(root, 0);
        // Release task 0; from here on the tasks schedule each other.
        {
            let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
            st.active = 0;
        }
        sched.cv.notify_all();

        // Wait until every registered task has finished. New tasks only
        // appear while some task is still running, so this terminates.
        let handles = {
            let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.tasks.iter().all(|t| *t == TaskState::Finished) {
                    break;
                }
                st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            std::mem::take(&mut st.os_handles)
        };
        for h in handles {
            let _ = h.join();
        }
        let st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
        ExecResult {
            decisions: st.decisions.clone(),
            failure: st.failure.clone(),
        }
    }

    /// Records `msg` as the execution's failure and begins teardown.
    fn fail(&self, st: &mut SchedState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Picks who runs next, recording the decision. Called with the
    /// state lock held, by the task giving up control (which has already
    /// set its own state). Returns without blocking.
    fn choose_next(&self, st: &mut SchedState, me: usize) {
        if st.abort {
            return;
        }
        let mut enabled: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == TaskState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            if st.tasks.iter().any(|t| *t != TaskState::Finished) {
                let blocked: Vec<usize> = st
                    .tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| **t == TaskState::Blocked)
                    .map(|(i, _)| i)
                    .collect();
                self.fail(
                    st,
                    format!("deadlock: tasks {blocked:?} are blocked and nothing can wake them"),
                );
            }
            // All finished: wake the explorer.
            self.cv.notify_all();
            return;
        }
        // Preemption bounding (CHESS-style): once the budget is spent, a
        // task that could keep running must keep running. Restricting
        // the *recorded* enabled set keeps the DFS from exploring
        // alternatives that would break the bound.
        let me_enabled = st.tasks.get(me) == Some(&TaskState::Runnable);
        // The current task goes first: it is the default choice below,
        // and the explorer only ever tries the alternatives *after* a
        // decision's chosen index — with `me` left in id order, every
        // lower-id task was never tried at a decision of a higher-id task.
        if me_enabled {
            enabled.retain(|&t| t != me);
            enabled.insert(0, me);
        }
        if me_enabled && st.preemption_bound.is_some_and(|b| st.preemptions >= b) {
            enabled = vec![me];
        }
        let pos = st.decisions.len();
        let chosen = match st.schedule.get(pos) {
            Some(&c) => c.min(enabled.len() - 1),
            // Past the prescribed prefix: stay on the current task when
            // possible (fewer context switches per baseline schedule),
            // else take the lowest id.
            None => 0,
        };
        let next = enabled[chosen];
        if me_enabled && next != me {
            st.preemptions += 1;
        }
        st.decisions.push(Decision { enabled, chosen });
        st.active = next;
        self.cv.notify_all();
    }

    /// A decision point for the active task `me`: offer the scheduler a
    /// chance to run someone else, then wait until re-activated.
    pub(crate) fn yield_point(&self, me: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        self.choose_next(&mut st, me);
        self.wait_for_turn(st, me);
    }

    /// A spin-wait iteration: hands control to another runnable task —
    /// never back to `me`, which would let a spin loop run forever —
    /// and reports a failure when there is none (the spin could never
    /// end). The hand-over costs no preemption, like a blocking point.
    pub(crate) fn yield_to_others(&self, me: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.tasks[me] = TaskState::Blocked;
        self.choose_next(&mut st, me);
        if !st.abort {
            st.tasks[me] = TaskState::Runnable;
        }
        self.wait_for_turn(st, me);
    }

    /// Consumes `me`'s unpark token, or blocks until [`Self::unpark`]
    /// delivers one.
    pub(crate) fn park(&self, me: usize) {
        self.yield_point(me);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if std::mem::take(&mut st.unpark_tokens[me]) {
            return;
        }
        st.parked[me] = true;
        st.tasks[me] = TaskState::Blocked;
        self.choose_next(&mut st, me);
        self.wait_for_turn(st, me);
    }

    /// Wakes `task` if it is parked, else leaves it a token so its next
    /// `park` returns at once.
    pub(crate) fn unpark(&self, task: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if std::mem::take(&mut st.parked[task]) {
            st.tasks[task] = TaskState::Runnable;
        } else {
            st.unpark_tokens[task] = true;
        }
    }

    /// Marks `me` blocked, schedules someone else, and waits until a
    /// wake event re-enables `me` *and* the scheduler picks it.
    pub(crate) fn block(&self, me: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.tasks[me] = TaskState::Blocked;
        self.choose_next(&mut st, me);
        self.wait_for_turn(st, me);
    }

    /// Marks `task` runnable again (a wake event: unlock, send, finish).
    /// The caller keeps running; the woken task waits to be chosen.
    pub(crate) fn unblock(&self, task: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.tasks[task] == TaskState::Blocked {
            st.tasks[task] = TaskState::Runnable;
        }
    }

    fn wait_for_turn(&self, mut st: std::sync::MutexGuard<'_, SchedState>, me: usize) {
        while st.active != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
    }

    /// Registers `me` as finished, wakes its joiners, and hands control
    /// onward.
    fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.tasks[me] = TaskState::Finished;
        for w in std::mem::take(&mut st.join_waiters[me]) {
            if st.tasks[w] == TaskState::Blocked {
                st.tasks[w] = TaskState::Runnable;
            }
        }
        if let Some(msg) = panic_msg {
            self.fail(&mut st, msg);
        } else {
            self.choose_next(&mut st, me);
        }
        // `choose_next` returns silently under abort; always wake the
        // explorer so the all-finished check reruns.
        self.cv.notify_all();
    }

    /// Blocks `me` until `target` finishes (no-op if it already has).
    pub(crate) fn join_task(&self, me: usize, target: usize) {
        loop {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.abort {
                drop(st);
                std::panic::panic_any(Abort);
            }
            if st.tasks[target] == TaskState::Finished {
                return;
            }
            st.join_waiters[target].push(me);
            st.tasks[me] = TaskState::Blocked;
            self.choose_next(&mut st, me);
            self.wait_for_turn(st, me);
        }
    }
}

/// Registers and starts a new task running `f`. The task starts runnable
/// but does not execute until the scheduler activates it. Returns the
/// task id.
pub(crate) fn spawn_task(sched: &Arc<Scheduler>, f: impl FnOnce() + Send + 'static) -> usize {
    let id = {
        let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.tasks.push(TaskState::Runnable);
        st.unpark_tokens.push(false);
        st.parked.push(false);
        st.join_waiters.push(Vec::new());
        st.tasks.len() - 1
    };
    let sched2 = Arc::clone(sched);
    let handle = std::thread::Builder::new()
        .name(format!("loom-task-{id}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched2), id)));
            // Wait to be activated for the first time. An abort before
            // that just skips the body — the task still reports finish.
            let aborted = {
                let st = sched2.state.lock().unwrap_or_else(|e| e.into_inner());
                sched2.wait_for_turn_entry(st, id)
            };
            let panic_msg = if aborted {
                None
            } else {
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(()) => None,
                    Err(p) if p.is::<Abort>() => None,
                    // Deref the box: `&p` would downcast against the
                    // `Box` itself, never matching the payload type.
                    Err(p) => Some(panic_message(&*p)),
                }
            };
            sched2.finish(id, panic_msg);
        })
        .unwrap_or_else(|e| panic!("loom could not spawn an OS thread for a task: {e}"));
    let mut st = sched.state.lock().unwrap_or_else(|e| e.into_inner());
    st.os_handles.push(handle);
    id
}

impl Scheduler {
    /// Entry-point variant of [`Scheduler::wait_for_turn`]: returns
    /// `true` if the execution aborted before this task ever ran, so the
    /// wrapper can skip the body and report finish — panicking here
    /// would unwind outside any `catch_unwind`.
    fn wait_for_turn_entry(
        &self,
        mut st: std::sync::MutexGuard<'_, SchedState>,
        me: usize,
    ) -> bool {
        while st.active != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.abort
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}
