//! Offline shim: a loom-lite deterministic interleaving explorer.
//!
//! Runs a closure (the *model*) repeatedly, once per distinct thread
//! interleaving, by strictly serializing its tasks and treating every
//! synchronization operation as a scheduling decision point. Schedules
//! are enumerated depth-first: after each execution the deepest decision
//! with an untried alternative is flipped and the prefix replayed.
//! This is stateless model checking in the style of CHESS/loom —
//! exhaustive for bounded models, with an optional preemption bound to
//! tame larger ones.
//!
//! What it checks:
//! * assertion failures / panics in the model, reported with the
//!   schedule number that triggered them;
//! * deadlocks — a state where unfinished tasks exist but none is
//!   runnable (this is how lost wakeups surface);
//! * via [`explore`], that the enumeration *completed* (the schedule
//!   space was fully covered under the configured bounds).
//!
//! What it does not model: weak-memory reorderings. All atomics behave
//! sequentially consistently (see [`sync::atomic`]).
//!
//! ```
//! use loom::sync::{Arc, Mutex};
//!
//! loom::model(|| {
//!     let m = Arc::new(Mutex::new(0usize));
//!     let m2 = Arc::clone(&m);
//!     let t = loom::thread::spawn(move || {
//!         *m2.lock().unwrap() += 1;
//!     });
//!     *m.lock().unwrap() += 1;
//!     t.join().unwrap();
//!     assert_eq!(*m.lock().unwrap(), 2);
//! });
//! ```

mod rt;
pub mod sync;
pub mod thread;

use std::sync::Arc;

/// The outcome of an [`explore`] run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// First failure found (assertion, panic, or deadlock), if any.
    /// Exploration stops at the first failing schedule.
    pub failure: Option<String>,
    /// True when every schedule under the configured bounds was run
    /// without failure; false when a failure stopped the search or
    /// `max_schedules` truncated it.
    pub completed: bool,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct Builder {
    /// CHESS-style bound: max number of *preemptive* context switches
    /// (switching away from a still-runnable task) per schedule.
    /// Switches at blocking points are always free. `None` = unbounded
    /// exhaustive search.
    pub preemption_bound: Option<usize>,
    /// Hard cap on the number of schedules to run; `None` = no cap.
    pub max_schedules: Option<usize>,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}

impl Builder {
    pub fn new() -> Builder {
        Builder {
            preemption_bound: None,
            max_schedules: None,
        }
    }

    /// Explores the model and panics (with the failing schedule number)
    /// on the first failure — the `loom::model` behavior.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let report = self.run(Arc::new(f));
        if let Some(msg) = &report.failure {
            panic!(
                "loom: model failed on schedule #{} of the exploration: {msg}",
                report.schedules
            );
        }
    }

    /// Explores the model and returns a [`Report`] instead of panicking.
    pub fn explore<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.run(Arc::new(f))
    }

    fn run(&self, f: Arc<dyn Fn() + Send + Sync>) -> Report {
        let mut schedule: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        loop {
            let exec =
                rt::Scheduler::run_execution(Arc::clone(&f), schedule, self.preemption_bound);
            schedules += 1;
            if let Some(failure) = exec.failure {
                return Report {
                    schedules,
                    failure: Some(failure),
                    completed: false,
                };
            }
            if self.max_schedules.is_some_and(|cap| schedules >= cap) {
                return Report {
                    schedules,
                    failure: None,
                    completed: false,
                };
            }
            // Depth-first successor: flip the deepest decision that
            // still has an untried alternative, keep the prefix.
            let d = exec.decisions;
            let flip = (0..d.len())
                .rev()
                .find(|&i| d[i].chosen + 1 < d[i].enabled.len());
            match flip {
                Some(i) => {
                    let mut next: Vec<usize> = d[..i].iter().map(|x| x.chosen).collect();
                    next.push(d[i].chosen + 1);
                    schedule = next;
                }
                None => {
                    return Report {
                        schedules,
                        failure: None,
                        completed: true,
                    };
                }
            }
        }
    }
}

/// Exhaustively explores `f` under every interleaving, panicking on the
/// first failing schedule. Equivalent to `Builder::new().check(f)`.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f);
}

/// Exhaustively explores `f` and returns a [`Report`] — use this to
/// assert that a *buggy* model is caught, or to inspect schedule counts.
pub fn explore<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().explore(f)
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{mpsc, Arc, Mutex};

    #[test]
    fn single_task_runs_once() {
        let r = super::explore(|| {
            let x = AtomicUsize::new(1);
            assert_eq!(x.load(Ordering::SeqCst), 1);
        });
        assert!(r.failure.is_none());
        assert!(r.completed);
        assert_eq!(r.schedules, 1, "one task has exactly one schedule");
    }

    #[test]
    fn explores_more_than_one_schedule_with_two_tasks() {
        let r = super::explore(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = super::thread::spawn(move || {
                x2.fetch_add(1, Ordering::SeqCst);
            });
            x.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(x.load(Ordering::SeqCst), 2);
        });
        assert!(
            r.failure.is_none(),
            "atomic increments never race: {:?}",
            r.failure
        );
        assert!(r.completed);
        assert!(
            r.schedules > 1,
            "two tasks must yield multiple interleavings"
        );
    }

    #[test]
    fn catches_a_racy_read_modify_write() {
        // The classic lost update: load, then store(load + 1). Some
        // interleaving makes both tasks load 0 and the final value 1.
        let r = super::explore(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = super::thread::spawn(move || {
                let v = x2.load(Ordering::SeqCst);
                x2.store(v + 1, Ordering::SeqCst);
            });
            let v = x.load(Ordering::SeqCst);
            x.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = r.failure.expect("the explorer must find the lost update");
        assert!(
            failure.contains("lost update"),
            "unexpected failure: {failure}"
        );
    }

    #[test]
    fn mutex_protects_a_counter() {
        let r = super::explore(|| {
            let m = Arc::new(Mutex::new(0usize));
            let m2 = Arc::clone(&m);
            let t = super::thread::spawn(move || {
                let mut g = m2.lock().unwrap();
                let v = *g;
                *g = v + 1;
            });
            {
                let mut g = m.lock().unwrap();
                let v = *g;
                *g = v + 1;
            }
            t.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 2);
        });
        assert!(
            r.failure.is_none(),
            "mutexed increments are atomic: {:?}",
            r.failure
        );
        assert!(r.completed);
    }

    #[test]
    fn detects_abba_deadlock() {
        let r = super::explore(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = super::thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            t.join().unwrap();
        });
        let failure = r
            .failure
            .expect("ABBA lock order must deadlock under some schedule");
        assert!(
            failure.contains("deadlock"),
            "unexpected failure: {failure}"
        );
    }

    #[test]
    fn channel_delivers_in_order_and_reports_disconnect() {
        let r = super::explore(|| {
            let (tx, rx) = mpsc::channel();
            let t = super::thread::spawn(move || {
                tx.send(1usize).unwrap();
                tx.send(2usize).unwrap();
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert!(rx.recv().is_err(), "all senders dropped");
            t.join().unwrap();
        });
        assert!(r.failure.is_none(), "{:?}", r.failure);
        assert!(r.completed);
    }

    #[test]
    fn join_returns_the_task_value() {
        super::model(|| {
            let t = super::thread::spawn(|| 41usize + 1);
            assert_eq!(t.join().unwrap(), 42);
        });
    }

    #[test]
    fn preemption_bound_shrinks_the_schedule_space() {
        let run = |bound: Option<usize>| {
            let b = super::Builder {
                preemption_bound: bound,
                max_schedules: None,
            };
            b.explore(|| {
                let x = Arc::new(AtomicUsize::new(0));
                let mk = |x: &Arc<AtomicUsize>| {
                    let x = Arc::clone(x);
                    super::thread::spawn(move || {
                        x.fetch_add(1, Ordering::SeqCst);
                        x.fetch_add(1, Ordering::SeqCst);
                    })
                };
                let (t1, t2) = (mk(&x), mk(&x));
                t1.join().unwrap();
                t2.join().unwrap();
                assert_eq!(x.load(Ordering::SeqCst), 4);
            })
        };
        let bounded = run(Some(1));
        let free = run(None);
        assert!(bounded.failure.is_none() && free.failure.is_none());
        assert!(bounded.completed && free.completed);
        assert!(
            bounded.schedules < free.schedules,
            "bound {} !< unbounded {}",
            bounded.schedules,
            free.schedules
        );
    }

    #[test]
    fn max_schedules_truncates_and_reports_incomplete() {
        let b = super::Builder {
            preemption_bound: None,
            max_schedules: Some(2),
        };
        let r = b.explore(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = super::thread::spawn(move || {
                x2.fetch_add(1, Ordering::SeqCst);
            });
            x.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
        });
        assert!(r.failure.is_none());
        assert!(!r.completed, "a truncated search must not claim completion");
        assert_eq!(r.schedules, 2);
    }

    #[test]
    fn model_panics_with_schedule_number_on_failure() {
        let caught = std::panic::catch_unwind(|| {
            super::model(|| {
                let x = Arc::new(AtomicUsize::new(0));
                let x2 = Arc::clone(&x);
                let t = super::thread::spawn(move || {
                    let v = x2.load(Ordering::SeqCst);
                    x2.store(v + 1, Ordering::SeqCst);
                });
                let v = x.load(Ordering::SeqCst);
                x.store(v + 1, Ordering::SeqCst);
                t.join().unwrap();
                assert_eq!(x.load(Ordering::SeqCst), 2);
            });
        });
        let payload = caught.expect_err("model must panic on a racy model");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("schedule #"),
            "panic should name the schedule: {msg}"
        );
    }

    #[test]
    fn a_spawned_task_can_be_preempted_for_a_lower_id_task() {
        // The main task (id 0) observes the spawned task between its two
        // writes only if the explorer switches away from task 1 to a
        // lower id at task 1's own decision point.
        let r = super::explore(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let m = Arc::new(Mutex::new(0usize));
            let (x2, m2) = (Arc::clone(&x), Arc::clone(&m));
            let t = super::thread::spawn(move || {
                x2.fetch_add(1, Ordering::SeqCst);
                *m2.lock().unwrap() = 1;
            });
            let seen_x = x.load(Ordering::SeqCst);
            let seen_m = *m.lock().unwrap();
            t.join().unwrap();
            assert!(!(seen_x == 1 && seen_m == 0), "saw the half-done task");
        });
        let failure = r.failure.expect("the explorer must reach the gap");
        assert!(failure.contains("half-done"), "{failure}");
    }

    #[test]
    fn an_unpark_before_the_park_is_not_lost() {
        let r = super::explore(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let flag2 = Arc::clone(&flag);
            let t = super::thread::spawn(move || {
                while flag2.load(Ordering::SeqCst) == 0 {
                    super::thread::park();
                }
            });
            flag.store(1, Ordering::SeqCst);
            t.thread().unpark();
            t.join().unwrap();
        });
        assert!(r.failure.is_none(), "{:?}", r.failure);
        assert!(r.completed && r.schedules > 1);
    }

    #[test]
    fn a_spin_that_nobody_can_end_is_reported() {
        let r = super::explore(|| {
            let flag = AtomicUsize::new(0);
            while flag.load(Ordering::SeqCst) == 0 {
                super::thread::yield_now();
            }
        });
        assert!(r.failure.is_some(), "a lone spinner never finishes");
    }
}
