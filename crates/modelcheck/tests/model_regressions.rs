//! Regressions for the schedule-space model checker: pinned schedules,
//! the seeded liveness-hole fixture, partial-order-reduction soundness,
//! and the deterministic abandoned-handle reaping the checker depends
//! on.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

use mpq_cluster::AbandonedList;
use pqopt_model::{
    explore, explore_por, find_scenario, fixture_scenario, run_scenario, ActionDesc,
};

/// Pinned known-good trace: the default schedule (always choice 0) of
/// the smallest MPQ scenario is the "run everything, then deliver
/// everything" order, completes clean, and replays to the identical
/// decision list. Guards both the controller's canonical action order
/// and the replay machinery.
#[test]
fn default_schedule_is_pinned_and_clean() {
    let scenario = find_scenario("mpq-ff-2w1s").expect("registered scenario");
    let first = run_scenario(&scenario, &[]);
    assert_eq!(first.violation, None, "default schedule must verify clean");
    // 2 workers, 1 session, 1 task + 1 reply each: step w0, step w1,
    // deliver w0, deliver w1 — the canonical most-productive order.
    let actions: Vec<ActionDesc> = first.decisions.iter().map(|d| d.action).collect();
    assert_eq!(
        actions,
        vec![
            ActionDesc::Step(0),
            ActionDesc::Step(1),
            ActionDesc::Deliver(0),
            ActionDesc::Deliver(1),
        ],
        "the pinned default schedule changed — the controller's canonical order moved"
    );
    // Replaying the recorded choices reproduces the run decision for
    // decision, signatures included.
    let replayed = run_scenario(&scenario, &first.schedule);
    assert_eq!(replayed.violation, None);
    assert_eq!(replayed.schedule, first.schedule);
    let sigs: Vec<u64> = first.decisions.iter().map(|d| d.signature).collect();
    let replayed_sigs: Vec<u64> = replayed.decisions.iter().map(|d| d.signature).collect();
    assert_eq!(sigs, replayed_sigs, "replay must be bit-deterministic");
}

/// The seeded fixture is a genuine liveness hole (clock-free retry +
/// evidence-starved drop): the explorer must find a stalling schedule,
/// and the counterexample must replay to the same stall.
#[test]
fn fixture_violation_is_found_and_replays() {
    let fixture = fixture_scenario();
    let report = explore(&fixture, 40, 5_000);
    let violation = report
        .violation
        .expect("the seeded liveness hole must be detected");
    assert!(
        violation.invariant.contains("stall"),
        "expected a stall verdict, got: {}",
        violation.invariant
    );
    // The counterexample is a replayable artifact: feeding the choice
    // list back reproduces the violation deterministically.
    let replayed = run_scenario(&fixture, &violation.schedule);
    let replayed_violation = replayed.violation.expect("counterexample must replay");
    assert_eq!(replayed_violation, violation.invariant);
    // The schedule really injects the drop it blames.
    assert!(
        replayed
            .decisions
            .iter()
            .any(|d| matches!(d.action, ActionDesc::Drop(_))),
        "the stalling schedule must contain the evidence-starving drop"
    );
}

/// Pinned counterexample for the fixture: the first stalling schedule
/// the explorer finds today. If recovery evidence handling changes and
/// this trace starts passing, the fixture needs a new seed — or the
/// liveness hole got fixed and the fixture should become a scenario.
#[test]
fn fixture_pinned_counterexample_still_stalls() {
    let fixture = fixture_scenario();
    let outcome = run_scenario(&fixture, &[1, 1]);
    let violation = outcome
        .violation
        .expect("pinned counterexample schedule must still violate");
    assert!(violation.contains("stall"), "got: {violation}");
}

/// Partial-order-reduction soundness: sweeping with and without the
/// reduction must agree on the verdict — the reduction may only change
/// how many schedules are needed, never what is found.
#[test]
fn por_preserves_verdicts() {
    for name in ["mpq-ff-2w1s", "mpq-ff-2w2s", "mpq-even-2w2s"] {
        let scenario = find_scenario(name).expect("registered scenario");
        let reduced = explore_por(&scenario, 40, 5_000, true);
        let unreduced = explore_por(&scenario, 40, 5_000, false);
        assert!(
            reduced.violation.is_none() && unreduced.violation.is_none(),
            "{name}: both sweeps must verify clean"
        );
        assert!(
            !reduced.truncated && !unreduced.truncated,
            "{name}: soundness comparison needs exhausted sweeps"
        );
        assert!(
            reduced.schedules <= unreduced.schedules,
            "{name}: the reduction must not enlarge the sweep \
             ({} reduced vs {} unreduced)",
            reduced.schedules,
            unreduced.schedules
        );
    }
    // And on the fixture, the reduction must not hide the violation.
    let fixture = fixture_scenario();
    let unreduced = explore_por(&fixture, 40, 5_000, false);
    assert!(
        unreduced.violation.is_some(),
        "the unreduced sweep must also find the seeded stall"
    );
}

/// Exhaustive sweeps are deterministic: same scenario, same bounds,
/// same schedule count and depth, twice in a row.
#[test]
fn exploration_is_deterministic() {
    let scenario = find_scenario("facade-coalesce-2w").expect("registered scenario");
    let a = explore(&scenario, 40, 5_000);
    let b = explore(&scenario, 40, 5_000);
    assert!(a.violation.is_none() && b.violation.is_none());
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.max_depth, b.max_depth);
    assert_eq!(a.branch_points, b.branch_points);
    assert!(!a.truncated, "this scope should exhaust well under the cap");
}

/// The admission scenario exhausts quickly and holds its budget on
/// every schedule (the model-checked port of the chaos suite's
/// admission-at-limit test).
#[test]
fn admission_scenario_exhausts_clean() {
    let scenario = find_scenario("facade-admission-2w").expect("registered scenario");
    let report = explore(&scenario, 40, 5_000);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.truncated);
    assert!(report.schedules >= 2, "the sweep must actually branch");
}

/// The explored space's fingerprint at the default bounds (depth 40,
/// 20k-schedule cap), for every scenario that exhausts under them:
/// `(schedules, max depth, branch points)`. Every receive the services
/// issue is a choice point whose kind (blocking / timed / try) selects
/// the enabled actions, and every send is folded into the state
/// signature — so a change to a receive kind, to the reap or send order,
/// or to admission timing moves these numbers. The session lifecycle was
/// extracted into `mpq_cluster::session` under exactly this table, and
/// folded back into `MpqService` under the same table; a differing count
/// is a finding about the state machine, not a number to re-baseline.
///
/// Load-aware placement moved four rows on purpose: a second session
/// submitted while both workers are busy runs whole on one of them, so
/// `mpq-ff-2w2s` (38 → 12), `mpq-ff-3w2s` (38 → 24), `mpq-drop-2w2s`
/// (8423 → 3759) and `mpq-dup-2w2s` (14098 → 5838) now explore a
/// fanned-out session beside a placed one. `mpq-even-2w2s` submits both
/// sessions with the explicit even layout and keeps the old
/// `mpq-ff-2w2s` row, so two fanned-out sessions stay explored.
///
/// `facade-cache-2w` runs two backend sessions one after the other; its
/// repeats are cache hits, which reach no transport and add no choice
/// point.
#[test]
fn explored_space_fingerprint_is_pinned() {
    const FINGERPRINT: [(&str, usize, usize, usize); 12] = [
        ("mpq-ff-2w1s", 4, 4, 3),
        ("mpq-ff-2w2s", 12, 6, 11),
        ("mpq-even-2w2s", 38, 8, 37),
        ("mpq-ff-3w2s", 24, 6, 23),
        ("mpq-drop-2w2s", 3759, 13, 3758),
        ("mpq-dup-2w2s", 5838, 12, 5837),
        ("mpq-crash-2w1s", 1198, 10, 1197),
        ("mpq-steal-2w1s", 48, 9, 47),
        ("facade-coalesce-2w", 10, 8, 9),
        ("facade-leader-drop-2w", 10, 8, 9),
        ("facade-cache-2w", 10, 8, 9),
        ("facade-admission-2w", 10, 8, 9),
    ];
    for (name, schedules, depth, branch_points) in FINGERPRINT {
        let scenario = find_scenario(name).expect("registered scenario");
        let report = explore(&scenario, 40, 20_000);
        assert!(report.violation.is_none(), "{name}: {:?}", report.violation);
        assert!(
            !report.truncated,
            "{name} must exhaust at the default bounds"
        );
        assert_eq!(
            (report.schedules, report.max_depth, report.branch_points),
            (schedules, depth, branch_points),
            "{name}: the explored schedule space moved"
        );
    }
}

/// Deterministic reaping: `drain_ordered` is ascending regardless of
/// push order, duplicates kept, and leaves the list empty.
#[test]
fn abandoned_list_reaping_is_deterministic() {
    let ordered = AbandonedList::new();
    for id in [7u64, 3, 11, 3, 5] {
        ordered.push(id);
    }
    assert_eq!(ordered.drain_ordered(), vec![3, 3, 5, 7, 11]);
    assert_eq!(ordered.drain_ordered(), Vec::<u64>::new());
}
