//! # parkit — a hand-built scoped parallelism kit
//!
//! The DISCOVER back-end applications (oil reservoir, CFD, seismic,
//! relativity kernels in the `appsim` crate) are "high-performance parallel
//! applications" in the paper. Rather than pull in an external
//! data-parallelism dependency, this crate provides the two primitives
//! those kernels call, built directly on `std::thread::scope`:
//!
//! * [`par_chunks_mut`] — disjoint mutable chunk processing,
//! * [`par_map`] — order-preserving parallel map.
//!
//! Both run sequentially on a single-core machine and on inputs too small
//! to split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::thread;

use parking_lot::Mutex;

/// Worker threads available to the primitives: the machine's available
/// parallelism, else 1.
fn threads() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Process disjoint mutable chunks of `data` in parallel.
///
/// `data` is split into chunks of `chunk_size` elements; `f` receives the
/// element offset of the chunk and the chunk itself. Chunks are dealt to
/// workers dynamically, and no more workers are spawned than there are
/// chunks.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_size = chunk_size.max(1);
    let workers = threads().min(data.len().div_ceil(chunk_size));
    if workers <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(ci * chunk_size, chunk);
        }
        return;
    }
    let work: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        data.chunks_mut(chunk_size)
            .enumerate()
            .map(|(ci, chunk)| (ci * chunk_size, chunk))
            .rev() // pop() hands chunks out front-to-back
            .collect(),
    );
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let item = work.lock().pop();
                match item {
                    Some((offset, chunk)) => f(offset, chunk),
                    None => break,
                }
            });
        }
    });
}

/// Order-preserving parallel map over a slice.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = threads();
    if n <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(n).max(1);
    let mut parts: Vec<(usize, Vec<U>)> = thread::scope(|s| {
        let fr = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| s.spawn(move || (ci, slice.iter().map(fr).collect::<Vec<U>>())))
            .collect();
        handles.into_iter().map(|h| h.join().expect("parkit::par_map worker panicked")).collect()
    });
    parts.sort_by_key(|(ci, _)| *ci);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut part) in parts.drain(..) {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_writes_disjointly() {
        let mut data = vec![0u64; 1003];
        par_chunks_mut(&mut data, 64, |offset, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (offset + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..500).collect();
        let out = par_map(&input, |&x| x * 3 + 1);
        assert_eq!(out, input.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_singleton() {
        assert_eq!(par_map(&Vec::<u32>::new(), |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }
}
