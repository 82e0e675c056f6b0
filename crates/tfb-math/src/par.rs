//! The workspace's one worker pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `items.iter().map(f)` on `workers` scoped threads (at least one): each
/// worker takes the next unclaimed index and writes its result into that
/// index's slot, so the results come back in input order whatever order
/// the workers finish in, and whatever is folded over them afterwards
/// adds up the same at any worker count.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}
