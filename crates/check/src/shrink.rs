//! Greedy scenario shrinking: given a failing scenario, delete events
//! until nothing can be removed without losing the failure.
//!
//! Candidates are removed one at a time in a deterministic order — user
//! actions (latest first, so dependent follow-ups go before the ops
//! they depend on), harness actions, crashes, partitions, disconnects,
//! the directory crash, then whole users — re-running the scenario after
//! each candidate deletion and keeping the deletion only if the failure
//! persists. The pass repeats until a full sweep removes nothing (a
//! fixpoint), which makes the result 1-minimal: every remaining event is
//! necessary.

use crate::scenario::Scenario;

/// Every scenario one deletion smaller than `s`, in candidate order.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut without = |delete: &dyn Fn(&mut Scenario)| {
        let mut t = s.clone();
        delete(&mut t);
        out.push(t);
    };
    for (ui, u) in s.users.iter().enumerate() {
        for ai in (0..u.actions.len()).rev() {
            without(&|t| {
                t.users[ui].actions.remove(ai);
            });
        }
    }
    for i in (0..s.admin.len()).rev() {
        without(&|t| {
            t.admin.remove(i);
        });
    }
    for i in (0..s.faults.crashes.len()).rev() {
        without(&|t| {
            t.faults.crashes.remove(i);
        });
    }
    for i in (0..s.faults.partitions.len()).rev() {
        without(&|t| {
            t.faults.partitions.remove(i);
        });
    }
    for i in (0..s.faults.disconnects.len()).rev() {
        without(&|t| {
            t.faults.disconnects.remove(i);
        });
    }
    if s.faults.dir_crash.is_some() {
        without(&|t| t.faults.dir_crash = None);
    }
    for ui in (0..s.users.len()).rev() {
        if s.users[ui].actions.is_empty() && s.users.len() > 1 {
            // Users carry their own server index and the latecomer names
            // no user index, so removal invalidates nothing else — except
            // disconnects, which index into `users` and drop or shift.
            without(&|t| {
                t.users.remove(ui);
                t.faults.disconnects.retain(|d| d.user != ui);
                t.faults.disconnects.iter_mut().filter(|d| d.user > ui).for_each(|d| d.user -= 1);
            });
        }
    }
    out
}

/// Shrink `scenario` to a 1-minimal failing reproduction. `failing`
/// must re-run the candidate and report whether the original failure is
/// still present; it is called once per candidate per sweep.
pub fn shrink(scenario: &Scenario, mut failing: impl FnMut(&Scenario) -> bool) -> Scenario {
    let mut current = scenario.clone();
    loop {
        let mut progressed = false;
        // Recompute candidates after each deletion: indices shift, and the
        // same slot now names the next candidate.
        let mut i = 0;
        while let Some(trial) = candidates(&current).into_iter().nth(i) {
            if failing(&trial) {
                current = trial;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Family, Scenario};

    #[test]
    fn shrink_keeps_only_what_the_predicate_needs() {
        let s = Scenario::generate(Family::Locks, 7);
        assert!(s.event_count() > 2, "locks scenarios carry several events");
        // Pretend the failure needs at least two total events.
        let shrunk = shrink(&s, |t| t.event_count() >= 2);
        assert_eq!(shrunk.event_count(), 2);
        // Shrinking against an always-failing predicate empties the
        // scenario (down to the single mandatory user).
        let empty = shrink(&s, |_| true);
        assert_eq!(empty.event_count(), 0);
        assert_eq!(empty.users.len(), 1);
        // Shrinking a never-failing input returns it unchanged.
        let same = shrink(&s, |_| false);
        assert_eq!(same.describe(), s.describe());
    }
}
