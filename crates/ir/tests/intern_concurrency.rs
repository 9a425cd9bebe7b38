//! The interner under concurrency: several threads intern overlapping
//! and fresh names while others resolve the handles being minted.
//!
//! This runs in its own test binary so the process-global table starts
//! empty here, which makes the segment-crossing assertion exact (and keeps
//! thousands of probe names out of `rid-ir`'s unit-test process, whose
//! memory-accounting tests charge the whole table).

use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc, Barrier, Mutex};

use rid_ir::Sym;

/// First ids of the resolve table's second and third segments (the
/// id → segment arithmetic is pinned at these boundaries by the unit test
/// `intern::tests::segment_arithmetic_at_boundaries`).
const SECOND_SEGMENT: u32 = 1024;
const THIRD_SEGMENT: u32 = 3072;

const INTERNERS: usize = 4;
const RESOLVERS: usize = 2;
/// Names every interner thread interns (each in its own order).
const SHARED: usize = 512;
/// Names only one thread interns: 4 × 1024 of them, so with at most
/// `SHARED + 1` other names in the table, the fresh ids run from below
/// `SECOND_SEGMENT` to past `THIRD_SEGMENT`.
const FRESH_PER_THREAD: usize = 1024;

#[test]
fn concurrent_interning_and_resolution() {
    let old = Sym::new("concurrency-probe-old");
    let (tx, rx) = mpsc::channel::<(String, Sym)>();
    let rx = Arc::new(Mutex::new(rx));
    // Every thread starts at once, so interning and resolving overlap.
    let start = Arc::new(Barrier::new(INTERNERS + RESOLVERS));

    // Resolvers check every handle as soon as an interner publishes it,
    // and keep resolving an old handle while the table grows, until every
    // interner has finished and dropped its sender.
    let resolvers: Vec<_> = (0..RESOLVERS)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut checked = 0usize;
                loop {
                    assert_eq!(old.as_str(), "concurrency-probe-old");
                    let next = rx.lock().unwrap().try_recv();
                    match next {
                        Ok((text, sym)) => {
                            assert_eq!(sym.as_str(), text);
                            checked += 1;
                        }
                        Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
                        Err(mpsc::TryRecvError::Disconnected) => break checked,
                    }
                }
            })
        })
        .collect();

    let interners: Vec<_> = (0..INTERNERS)
        .map(|t| {
            let tx = tx.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut shared = Vec::with_capacity(SHARED);
                let mut fresh = Vec::with_capacity(FRESH_PER_THREAD);
                for i in 0..FRESH_PER_THREAD {
                    if i < SHARED {
                        let text = format!("concurrency-shared-{}", (i * 7 + t * 131) % SHARED);
                        let sym = Sym::new(&text);
                        tx.send((text.clone(), sym)).unwrap();
                        shared.push((text, sym));
                    }
                    let text = format!("concurrency-fresh-{t}-{i}");
                    let sym = Sym::new(&text);
                    tx.send((text.clone(), sym)).unwrap();
                    fresh.push((text, sym));
                }
                (shared, fresh)
            })
        })
        .collect();
    drop(tx);
    let results: Vec<_> = interners.into_iter().map(|h| h.join().unwrap()).collect();
    let checked: usize = resolvers.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(checked, INTERNERS * (SHARED + FRESH_PER_THREAD));

    let mut shared_ids: HashMap<&str, Sym> = HashMap::new();
    let mut fresh_ids = HashSet::new();
    for (shared, fresh) in &results {
        for (text, sym) in shared {
            assert_eq!(sym.as_str(), text);
            assert_eq!(*shared_ids.entry(text).or_insert(*sym), *sym, "{text}");
        }
        for (text, sym) in fresh {
            assert_eq!(sym.as_str(), text);
            assert_eq!(Sym::lookup(text), Some(*sym));
            assert!(fresh_ids.insert(sym.id()), "fresh names get distinct ids");
        }
    }
    assert_eq!(shared_ids.len(), SHARED);
    assert_eq!(Sym::interned_count(), 1 + SHARED + INTERNERS * FRESH_PER_THREAD);
    let lowest = *fresh_ids.iter().min().unwrap();
    let highest = *fresh_ids.iter().max().unwrap();
    assert!(
        lowest < SECOND_SEGMENT && highest >= THIRD_SEGMENT,
        "fresh ids {lowest}..={highest} must cross two segment boundaries"
    );
}
