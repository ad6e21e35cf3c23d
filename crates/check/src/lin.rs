//! Wing–Gong-style linearizability checker for the steering lock.
//!
//! The specification object is a single-holder lock automaton: state is
//! `holder: Option<user>`, and the legal transitions are
//!
//! | operation              | precondition              | next holder |
//! |------------------------|---------------------------|-------------|
//! | `Granted(u)`           | holder ∈ {None, u}        | `u`         |
//! | `Denied(u, h)`         | holder == h               | unchanged   |
//! | `ReleaseOk(u)`         | holder == u               | `None`      |
//! | `ReleaseFail(u)` (checked)   | holder != u         | unchanged   |
//! | `ReleaseFail(u)` (unchecked) | always              | unchanged   |
//! | `Free(u)` (eviction / forced release) | holder == u | `None`     |
//!
//! Each observed operation carries a real-time interval `[lo, hi]`
//! (invocation to response). A history is linearizable iff there is a
//! total order of all operations that (a) respects real time — if
//! `p.hi < q.lo` then `p` precedes `q` — and (b) is a legal run of the
//! automaton. The checker searches for such an order by depth-first
//! search over (set of executed ops, current holder) with memoization —
//! whether the rest of the history can linearize depends only on that
//! pair, never on the order the prefix was executed in — so the search
//! is exponential only in the number of ops whose intervals actually
//! overlap (bounded by the client count here).
//!
//! "Unchecked" release failures exist because a relayed release that
//! fast-fails at an unreachable host is wire-indistinguishable from a
//! true "not the holder" rejection; the checker admits them as no-ops
//! rather than guessing.

use std::collections::HashSet;

/// The operation alphabet of the lock automaton.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinKind {
    /// Acquire succeeded.
    Granted,
    /// Acquire denied; the response named this holder.
    Denied {
        /// The holder the denial reported.
        holder: String,
    },
    /// Release succeeded.
    ReleaseOk,
    /// Release failed ("not the lock holder").
    ReleaseFail {
        /// Whether the failure is a verified host decision (local
        /// clients / host history) rather than a relay fast-fail.
        checked: bool,
    },
    /// The host evicted or force-released this user's lock (lease
    /// expiry, relay-peer death, revocation, logout).
    Free,
}

/// One operation with its real-time interval (µs).
#[derive(Clone, Debug)]
pub struct LinOp {
    /// The acting user (for `Free`, the user losing the lock).
    pub user: String,
    /// What happened.
    pub kind: LinKind,
    /// Interval start: invocation (or event time − slack).
    pub lo_us: u64,
    /// Interval end: response arrival (or event time + slack).
    pub hi_us: u64,
}

impl LinOp {
    fn render(&self) -> String {
        format!("{:?} by {} in [{}, {}]", self.kind, self.user, self.lo_us, self.hi_us)
    }
}

/// Apply `op` to `holder`; `None` = illegal in this state.
fn step(
    op: &LinKind,
    actor: usize,
    denied_holder: Option<usize>,
    holder: Option<usize>,
) -> Option<Option<usize>> {
    match op {
        LinKind::Granted => {
            if holder.is_none() || holder == Some(actor) {
                Some(Some(actor))
            } else {
                None
            }
        }
        LinKind::Denied { .. } => {
            if holder.is_some() && holder == denied_holder {
                Some(holder)
            } else {
                None
            }
        }
        LinKind::ReleaseOk => {
            if holder == Some(actor) {
                Some(None)
            } else {
                None
            }
        }
        LinKind::ReleaseFail { checked: true } => {
            if holder != Some(actor) {
                Some(holder)
            } else {
                None
            }
        }
        LinKind::ReleaseFail { checked: false } => Some(holder),
        LinKind::Free => {
            if holder == Some(actor) {
                Some(None)
            } else {
                None
            }
        }
    }
}

fn intern(users: &mut Vec<String>, name: &str) -> usize {
    if let Some(i) = users.iter().position(|u| u == name) {
        return i;
    }
    users.push(name.to_string());
    users.len() - 1
}

/// Search for a linearization of `ops`. `Ok(())` if one exists;
/// `Err(report)` with the stuck frontier otherwise.
pub fn check_linearizable(ops: &[LinOp]) -> Result<(), String> {
    let n = ops.len();
    if n == 0 {
        return Ok(());
    }
    if n > 63 {
        return Err(format!(
            "linearizability search over {n} ops exceeds the 63-op bitmask budget \
             (scenario generator caps lock traffic well below this)"
        ));
    }
    let mut users = Vec::new();
    let actor: Vec<usize> = ops.iter().map(|o| intern(&mut users, &o.user)).collect();
    let denied_holder: Vec<Option<usize>> = ops
        .iter()
        .map(|o| match &o.kind {
            LinKind::Denied { holder } => Some(intern(&mut users, holder)),
            _ => None,
        })
        .collect();

    let full: u64 = if n == 63 { !0 >> 1 } else { (1u64 << n) - 1 };
    let mut memo: HashSet<(u64, u64)> = HashSet::new();
    // Deepest frontier reached, for the failure report.
    let mut best_mask: u64 = 0;
    let mut best_holder: Option<usize> = None;

    // Iterative DFS with an explicit stack of (mask, holder).
    let mut stack: Vec<(u64, Option<usize>)> = vec![(0, None)];
    while let Some((mask, holder)) = stack.pop() {
        if mask == full {
            return Ok(());
        }
        let key = (mask, holder.map(|h| h as u64 + 1).unwrap_or(0));
        if !memo.insert(key) {
            continue;
        }
        if mask.count_ones() > best_mask.count_ones() {
            best_mask = mask;
            best_holder = holder;
        }
        // Real-time rule: op i may go next only if no unexecuted op
        // finished strictly before i began.
        let mut min_hi = u64::MAX;
        for (i, op) in ops.iter().enumerate() {
            if mask & (1 << i) == 0 {
                min_hi = min_hi.min(op.hi_us);
            }
        }
        for i in 0..n {
            if mask & (1 << i) != 0 || ops[i].lo_us > min_hi {
                continue;
            }
            if let Some(next) = step(&ops[i].kind, actor[i], denied_holder[i], holder) {
                stack.push((mask | (1 << i), next));
            }
        }
    }

    // No linearization: report the deepest state and the ops that could
    // not be scheduled from it.
    let holder_name = best_holder.map(|h| users[h].clone()).unwrap_or_else(|| "-".into());
    let remaining: Vec<String> =
        (0..n).filter(|i| best_mask & (1 << i) == 0).map(|i| ops[i].render()).collect();
    Err(format!(
        "no linearization exists: deepest frontier executed {}/{} ops \
         (holder={holder_name}); unschedulable remainder: {}",
        best_mask.count_ones(),
        n,
        remaining.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(user: &str, kind: LinKind, lo: u64, hi: u64) -> LinOp {
        LinOp { user: user.into(), kind, lo_us: lo, hi_us: hi }
    }

    #[test]
    fn empty_and_simple_histories_pass() {
        assert!(check_linearizable(&[]).is_ok());
        let ops = vec![
            op("a", LinKind::Granted, 0, 10),
            op("b", LinKind::Denied { holder: "a".into() }, 20, 30),
            op("a", LinKind::ReleaseOk, 40, 50),
            op("b", LinKind::Granted, 60, 70),
        ];
        assert!(check_linearizable(&ops).is_ok());
    }

    #[test]
    fn double_grant_is_rejected() {
        // Two disjoint grants with no release between them: no order of a
        // single-holder lock explains this.
        let ops = vec![op("a", LinKind::Granted, 0, 10), op("b", LinKind::Granted, 20, 30)];
        let err = check_linearizable(&ops).unwrap_err();
        assert!(err.contains("no linearization"), "{err}");
    }

    #[test]
    fn overlapping_intervals_may_reorder() {
        // The denial overlaps the grant, so it may linearize after it
        // even though its invocation came first.
        let ops = vec![
            op("b", LinKind::Denied { holder: "a".into() }, 0, 100),
            op("a", LinKind::Granted, 5, 50),
        ];
        assert!(check_linearizable(&ops).is_ok());
    }

    #[test]
    fn eviction_frees_the_lock_for_the_next_grant() {
        let with_free = vec![
            op("a", LinKind::Granted, 0, 10),
            op("a", LinKind::Free, 500, 600),
            op("b", LinKind::Granted, 700, 710),
        ];
        assert!(check_linearizable(&with_free).is_ok());
        let without_free =
            vec![op("a", LinKind::Granted, 0, 10), op("b", LinKind::Granted, 700, 710)];
        assert!(check_linearizable(&without_free).is_err());
    }

    #[test]
    fn release_fail_semantics() {
        // Checked: only legal while NOT holding.
        let bogus = vec![
            op("a", LinKind::Granted, 0, 10),
            op("a", LinKind::ReleaseFail { checked: true }, 20, 30),
        ];
        assert!(check_linearizable(&bogus).is_err());
        // Unchecked: a relay fast-fail is a no-op anywhere.
        let relay = vec![
            op("a", LinKind::Granted, 0, 10),
            op("a", LinKind::ReleaseFail { checked: false }, 20, 30),
            op("a", LinKind::ReleaseOk, 40, 50),
        ];
        assert!(check_linearizable(&relay).is_ok());
    }

    #[test]
    fn reacquire_by_holder_is_legal() {
        let ops = vec![
            op("a", LinKind::Granted, 0, 10),
            op("a", LinKind::Granted, 20, 30),
            op("a", LinKind::ReleaseOk, 40, 50),
        ];
        assert!(check_linearizable(&ops).is_ok());
    }

    #[test]
    fn real_time_order_is_enforced() {
        // b's denial names a as holder but completes strictly BEFORE a's
        // grant begins — real time forbids moving it after the grant.
        let ops = vec![
            op("b", LinKind::Denied { holder: "a".into() }, 0, 10),
            op("a", LinKind::Granted, 20, 30),
        ];
        assert!(check_linearizable(&ops).is_err());
    }
}
