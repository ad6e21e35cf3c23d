//! The experiment harness: regenerates every table/figure-equivalent of
//! the paper's evaluation.
//!
//! Experiments are seed-deterministic and share nothing, so they run in
//! parallel on worker threads; tables are printed in experiment order
//! once all selected runs finish.
//!
//! Usage:
//!   cargo run --release -p discover-bench --bin harness -- all
//!   cargo run --release -p discover-bench --bin harness -- e1 e4 e7
//!   cargo run --release -p discover-bench --bin harness -- --filter e14
//!   cargo run --release -p discover-bench --bin harness -- --serial all
//!
//! Exits 1 when an experiment's acceptance check notes a `VIOLATION`
//! (the notes are also repeated on stderr), and 2 on an unknown
//! experiment id.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use discover_bench::experiments;
use discover_bench::report::Table;
use simnet::EngineTally;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut serial = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serial" => serial = true,
            "--filter" => match it.next() {
                Some(id) => wanted.push(id),
                None => {
                    eprintln!("error: --filter requires an experiment id");
                    std::process::exit(2);
                }
            },
            _ => wanted.push(a),
        }
    }
    let known = experiments::all();
    if wanted.is_empty() || wanted.iter().any(|a| a == "all") {
        wanted = known.iter().map(|(id, _)| id.to_string()).collect();
    }
    let unknown: Vec<&String> =
        wanted.iter().filter(|w| !known.iter().any(|(id, _)| w.eq_ignore_ascii_case(id))).collect();
    if !unknown.is_empty() {
        let ids: Vec<&str> = known.iter().map(|(id, _)| *id).collect();
        for w in &unknown {
            eprintln!("error: unknown experiment id '{}' (known: {})", w, ids.join(", "));
        }
        std::process::exit(2);
    }
    #[allow(clippy::type_complexity)]
    let selected: Vec<(&'static str, fn() -> Table)> = known
        .into_iter()
        .filter(|(id, _)| wanted.iter().any(|w| w.eq_ignore_ascii_case(id)))
        .collect();

    println!("DISCOVER middleware reproduction — experiment harness");
    println!("(virtual-time simulation; see EXPERIMENTS.md for paper-vs-measured)");

    let workers = if serial {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(selected.len().max(1))
    };
    // Work-stealing by atomic index: each worker claims the next
    // experiment; results land in their original slot so the report
    // order is stable regardless of completion order.
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<(Table, f64, EngineTally)>>> =
        selected.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, run)) = selected.get(i) else { break };
                // An experiment builds and drops its engines on this
                // thread, so the thread's tally is the experiment's.
                EngineTally::take();
                let start = std::time::Instant::now();
                let table = run();
                let secs = start.elapsed().as_secs_f64();
                *results[i].lock().unwrap() = Some((table, secs, EngineTally::take()));
            });
        }
    });
    let mut violations = Vec::new();
    for ((id, _), slot) in selected.iter().zip(&results) {
        let Some((table, secs, tally)) = slot.lock().unwrap().take() else { continue };
        violations.extend(table.violations().map(|note| format!("{id}: {note}")));
        table.print();
        table.write_csv();
        let rate = tally.events as f64 / secs.max(1e-9);
        println!(
            "  [{id} finished in {secs:.1} s wall, {} events, {rate:.0} events/s, \
             heap peak {}, backlog peak {}]",
            tally.events, tally.queue_peak, tally.backlog_peak
        );
    }
    // An experiment's acceptance checks fail by noting a VIOLATION; the
    // run fails with them, and stdout stays what the digest covers.
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("error: {v}");
        }
        std::process::exit(1);
    }
}
