//! The two driver threads: an updater that commits on the schedule and
//! a viewer that pumps the display and notes when each commit shows.

use crate::clock;
use crate::rig::Rig;
use crate::schedule::{Attr, Schedule, LINKS};
use displaydb_common::DbResult;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A commit not shown by the display this long after the updater
/// stopped counts as failed.
pub const REFRESH_LIMIT: Duration = Duration::from_secs(5);

/// The updater sleeps until this long before a commit is due and spins
/// the rest, so that timer slack does not show up as generator lateness.
const SPIN_NS: u64 = 200_000;

/// One commit, as the two driver threads saw it.
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    /// Position in the schedule.
    pub index: u64,
    /// When the commit was due (open loop) or began (closed loop).
    pub due_ns: u64,
    /// When the updater actually began it.
    pub begun_ns: u64,
    /// When the commit was acknowledged; `None` if it failed.
    pub acked_ns: Option<u64>,
    /// When the viewer thread first saw the display hold a value ≥ the
    /// commit's; `None` for commits outside the viewer's projection and
    /// for commits never seen.
    pub shown_ns: Option<u64>,
}

/// Everything one drive produced.
pub struct Driven {
    /// In schedule order.
    pub commits: Vec<Issued>,
    /// Whether the viewer saw every commit it was due to see.
    pub converged: bool,
}

/// Drive commits `first..` on the updater and viewer threads until the
/// next commit would be due (open loop) or begin (closed loop) at or after
/// `deadline_ns`. The open-loop schedule's time zero is `epoch_ns`.
pub fn drive(
    rig: &Rig,
    schedule: &Schedule,
    first: u64,
    epoch_ns: u64,
    deadline_ns: u64,
) -> DbResult<Driven> {
    // Commits with index < `begun` have been started by the updater.
    let begun = AtomicU64::new(first);
    let updater_done = AtomicBool::new(false);
    let (issued, shown) = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            let out = run_updater(rig, schedule, first, epoch_ns, deadline_ns, &begun);
            updater_done.store(true, Ordering::Release);
            out
        });
        let viewer = scope.spawn(|| run_viewer(rig, schedule, first, &begun, &updater_done));
        (
            updater.join().expect("updater thread panicked"),
            viewer.join().expect("viewer thread panicked"),
        )
    });
    let mut commits = issued;
    let (shown, converged) = shown?;
    for (commit, shown_ns) in commits.iter_mut().zip(shown) {
        commit.shown_ns = shown_ns;
    }
    Ok(Driven { commits, converged })
}

fn run_updater(
    rig: &Rig,
    schedule: &Schedule,
    first: u64,
    epoch_ns: u64,
    deadline_ns: u64,
    begun: &AtomicU64,
) -> Vec<Issued> {
    let mut out = Vec::new();
    for index in first.. {
        let commit = schedule.commit(index);
        let due_ns = commit.due_ns.map(|d| epoch_ns + d);
        if due_ns.unwrap_or_else(clock::now_ns) >= deadline_ns {
            break;
        }
        if let Some(due) = due_ns {
            clock::sleep_then_spin_until(due, SPIN_NS);
        }
        let begun_ns = clock::now_ns();
        begun.store(index + 1, Ordering::Release);
        let oid = rig.oids[commit.link];
        let acked = rig.updater.begin().and_then(|mut txn| {
            txn.update(oid, |o| {
                o.set(&rig.catalog, commit.attr.name(), commit.value)
            })?;
            txn.commit()
        });
        out.push(Issued {
            index,
            due_ns: due_ns.unwrap_or(begun_ns),
            begun_ns,
            acked_ns: acked.is_ok().then(clock::now_ns),
            shown_ns: None,
        });
    }
    out
}

fn run_viewer(
    rig: &Rig,
    schedule: &Schedule,
    first: u64,
    begun: &AtomicU64,
    updater_done: &AtomicBool,
) -> DbResult<(Vec<Option<u64>>, bool)> {
    let mut shown: Vec<Option<u64>> = Vec::new();
    // Per link, the projected commits not yet seen on the display.
    let mut waiting: Vec<VecDeque<u64>> = vec![VecDeque::new(); LINKS];
    let mut active: Vec<usize> = Vec::new();
    let mut next = first;
    let mut done_at: Option<u64> = None;
    loop {
        rig.display.wait_and_process(Duration::from_millis(2))?;
        // Read the flag before the counter: once it is set the counter
        // is final, so nothing begun can be missed below.
        let done = updater_done.load(Ordering::Acquire);
        let upto = begun.load(Ordering::Acquire);
        while next < upto {
            let commit = schedule.commit(next);
            if commit.attr == Attr::Utilization {
                if waiting[commit.link].is_empty() {
                    active.push(commit.link);
                }
                waiting[commit.link].push_back(next);
            }
            shown.push(None);
            next += 1;
        }
        active.retain(|&link| {
            let value = rig
                .display
                .object(rig.do_ids[link])
                .and_then(|o| o.attr("Utilization").and_then(|v| v.as_float().ok()));
            let now = clock::now_ns();
            let queue = &mut waiting[link];
            while let Some(&index) = queue.front() {
                if value.is_some_and(|v| v >= schedule.commit(index).value) {
                    shown[(index - first) as usize] = Some(now);
                    queue.pop_front();
                } else {
                    break;
                }
            }
            !queue.is_empty()
        });
        if done {
            let now = clock::now_ns();
            if active.is_empty() {
                return Ok((shown, true));
            }
            if now - *done_at.get_or_insert(now) > REFRESH_LIMIT.as_nanos() as u64 {
                return Ok((shown, false));
            }
        }
    }
}
