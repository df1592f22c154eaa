//! Nesting-safe wall-clock spans.
//!
//! [`timed`] measures a closure and reports both **inclusive** wall time
//! and **exclusive** wall time (inclusive minus same-thread child spans).
//! Exclusive time is what fixes the old `bench` double-count: a phase
//! timed inside another phase no longer bills its milliseconds twice.
//! Nesting is tracked per thread — spans running inside `par_map` tasks
//! subtract their own children, not their siblings on other threads.
//!
//! Wall-clock values are inherently nondeterministic, so span records are
//! **never** merged into the metrics registry: they flow into the run
//! manifest's volatile `meta` section. Only the span *names*, in
//! submission order, enter the deterministic `run` section. When tracing
//! is enabled each span additionally emits `span` begin/end events (at
//! `t_us = 0`, outside simulated time).
//!
//! Simulated time noted by a workload ([`set_span_sim_us`]) is kept per
//! task frame, so a span counts only its own work and the tasks it joined,
//! never a session running at the same time on another thread.
//!
//! Per-task totals from `nvfs-par` land here too, via [`add_task_wall`]:
//! a cumulative task count and wall-clock sum, reported in manifest meta.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::sink;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. a bench stage or CLI phase).
    pub name: String,
    /// Inclusive wall-clock milliseconds.
    pub wall_ms: f64,
    /// Exclusive wall-clock milliseconds (children subtracted).
    pub excl_ms: f64,
    /// Simulated microseconds covered, when the caller noted them via
    /// [`set_span_sim_us`]; 0 otherwise.
    pub sim_us: u64,
}

thread_local! {
    /// Child wall ms accumulated by each open span on this thread.
    static STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };

    /// High-water mark of simulated time noted in this thread's current
    /// task frame, including the tasks it has joined.
    ///
    /// Simulation work often runs on `nvfs-par` worker threads, so a note
    /// must reach spans on the submitting thread. It does so at the join:
    /// [`crate::sink::task_frame`] starts each task at 0 and hands its
    /// mark back to the submitter, which folds it in with `max`. Within a
    /// frame the notes come in program order and `max` is commutative
    /// across the joined tasks, so the value a span observes is identical
    /// at any job count.
    static FRAME_SIM: Cell<u64> = const { Cell::new(0) };
}

/// Starts a task frame's mark at 0, returning the enclosing frame's.
pub(crate) fn enter_frame() -> u64 {
    FRAME_SIM.replace(0)
}

/// Ends a task frame: restores the enclosing frame's mark (`saved`, from
/// [`enter_frame`]) and returns the finished frame's.
pub(crate) fn leave_frame(saved: u64) -> u64 {
    FRAME_SIM.replace(saved)
}

/// Folds `mark` into the current frame's high-water mark.
pub(crate) fn fold_sim_mark(mark: u64) {
    FRAME_SIM.set(FRAME_SIM.get().max(mark));
}

/// Runs `f` inside a named span, recording a [`SpanRecord`] into the
/// current task shard and returning it alongside the result.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, SpanRecord) {
    crate::events::event("span", 0)
        .owned("name", name)
        .str("phase", "begin")
        .emit();
    STACK.with(|s| s.borrow_mut().push(0.0));
    let sim_at_open = FRAME_SIM.get();
    let start = Instant::now();
    let out = f();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let sim_at_close = FRAME_SIM.get();
    let child_ms = STACK.with(|s| s.borrow_mut().pop()).unwrap_or(0.0);
    STACK.with(|s| {
        if let Some(parent_child_ms) = s.borrow_mut().last_mut() {
            *parent_child_ms += wall_ms;
        }
    });
    let record = SpanRecord {
        name: name.to_string(),
        wall_ms,
        excl_ms: (wall_ms - child_ms).max(0.0),
        sim_us: if sim_at_close > sim_at_open {
            sim_at_close
        } else {
            0
        },
    };
    sink::with_local(|l| l.spans.push(record.clone()));
    crate::events::event("span", 0)
        .owned("name", name)
        .str("phase", "end")
        .emit();
    (out, record)
}

/// Runs `f` inside a named span, discarding the record (it is still
/// collected for the manifest).
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
}

/// Notes simulated time reached by the running workload. Every span open
/// in this task frame while its high-water mark advances (directly or by
/// joining a task that noted more) reports the new mark as its `sim_us`.
pub fn set_span_sim_us(sim_us: u64) {
    fold_sim_mark(sim_us);
}

/// All recorded spans, merged in submission order.
pub fn spans() -> Vec<SpanRecord> {
    sink::merged_shards()
        .into_iter()
        .flat_map(|s| s.spans)
        .collect()
}

static TASKS: AtomicU64 = AtomicU64::new(0);
static TASK_WALL_US: AtomicU64 = AtomicU64::new(0);

/// Accumulates one parallel task's wall time (called by `nvfs-par`).
pub fn add_task_wall(wall: std::time::Duration) {
    TASKS.fetch_add(1, Ordering::Relaxed);
    TASK_WALL_US.fetch_add(wall.as_micros() as u64, Ordering::Relaxed);
}

/// `(task count, cumulative wall µs)` accumulated by [`add_task_wall`].
pub fn task_totals() -> (u64, u64) {
    (
        TASKS.load(Ordering::Relaxed),
        TASK_WALL_US.load(Ordering::Relaxed),
    )
}

/// Zeroes the per-task totals and the calling thread's sim high-water
/// mark (part of [`crate::reset`]).
pub(crate) fn reset_task_totals() {
    TASKS.store(0, Ordering::Relaxed);
    TASK_WALL_US.store(0, Ordering::Relaxed);
    FRAME_SIM.set(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{reset, task_frame, test_lock};
    use std::sync::Barrier;

    #[test]
    fn nested_spans_do_not_double_count() {
        let _g = test_lock();
        reset();
        let (_, outer) = timed("outer", || {
            let (_, inner) = timed("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            assert!(inner.wall_ms >= 18.0, "inner {}", inner.wall_ms);
        });
        assert!(outer.wall_ms >= 18.0);
        // The outer span's exclusive time excludes the inner sleep.
        assert!(
            outer.excl_ms < outer.wall_ms - 15.0,
            "excl {} vs wall {}",
            outer.excl_ms,
            outer.wall_ms
        );
        let names: Vec<String> = spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["inner".to_string(), "outer".to_string()]);
        reset();
    }

    #[test]
    fn sim_time_attaches_to_open_spans() {
        let _g = test_lock();
        reset();
        reset_task_totals();
        // Noted in a task on another thread (as under par_map): attaches
        // once the task is joined.
        let (_, rec) = timed("phase", || {
            std::thread::spawn(|| task_frame(&[], 0, || set_span_sim_us(1_000_000)))
                .join()
                .unwrap()
                .join();
        });
        assert_eq!(rec.sim_us, 1_000_000);
        // A later span during which the mark does not advance reports 0.
        let (_, idle) = timed("idle", || set_span_sim_us(500));
        assert_eq!(idle.sim_us, 0);
        reset();
        reset_task_totals();
    }

    #[test]
    fn sim_time_noted_by_a_concurrent_task_stays_out_of_other_spans() {
        let _g = test_lock();
        reset();
        let barrier = Barrier::new(2);
        let (mine, theirs) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                task_frame(&[], 0, || {
                    timed("theirs", || {
                        barrier.wait(); // both spans are open
                        set_span_sim_us(7_000);
                        barrier.wait(); // noted while "mine" is still open
                    })
                    .1
                })
            });
            let (_, mine) = timed("mine", || {
                barrier.wait();
                barrier.wait();
            });
            (mine, other.join().unwrap().join())
        });
        assert_eq!(theirs.sim_us, 7_000);
        assert_eq!(mine.sim_us, 0, "a concurrent task's note leaked in");
        reset();
    }

    #[test]
    fn task_totals_accumulate() {
        let _g = test_lock();
        reset_task_totals();
        add_task_wall(std::time::Duration::from_micros(500));
        add_task_wall(std::time::Duration::from_micros(300));
        assert_eq!(task_totals(), (2, 800));
        reset_task_totals();
    }
}
