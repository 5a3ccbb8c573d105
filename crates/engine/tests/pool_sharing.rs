//! Regression test for the process-wide shared worker pool: concurrent
//! callers (e.g. two jobs of the multi-tenant service) must share one set of
//! workers instead of each spawning its own `host_parallelism()` threads.
//!
//! Before the shared pool, every `parallel_map` call spawned its own scoped
//! threads, so two interleaved jobs ran up to `2 x host_parallelism()`
//! compute threads — oversubscribing the host. Now at most
//! `shared_pool_workers()` persistent workers exist, plus each blocked
//! caller draining its own batch.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use matryoshka_engine::pool::{host_parallelism, parallel_map, shared_pool_workers};

/// Track the high-water mark of threads concurrently inside closures.
struct Gauge {
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { active: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    fn enter(&self) {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn interleaved_jobs_do_not_oversubscribe_cores() {
    let callers = 4;
    let gauge = Arc::new(Gauge::new());
    let barrier = Arc::new(Barrier::new(callers));
    let handles: Vec<_> = (0..callers)
        .map(|_| {
            let gauge = Arc::clone(&gauge);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Line all callers up so their batches overlap in the pool.
                barrier.wait();
                for _ in 0..20 {
                    let out = parallel_map((0..512u64).collect(), |i, x| {
                        gauge.enter();
                        // Enough work that claims from distinct batches
                        // genuinely overlap in time.
                        let v = (0..500u64).fold(x, |a, b| a.wrapping_add(b ^ i as u64));
                        gauge.exit();
                        v
                    });
                    assert_eq!(out.len(), 512);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread panicked");
    }

    // The only threads that ever run closures are the shared workers plus
    // the callers themselves (each drains its own batch while it waits).
    let bound = shared_pool_workers() + callers;
    let peak = gauge.peak.load(Ordering::SeqCst);
    assert!(
        peak <= bound,
        "peak concurrent compute threads {peak} exceeded shared-pool bound {bound} \
         (host_parallelism = {})",
        host_parallelism()
    );
    assert!(peak >= 1, "work must have run");
}

/// A bounded rendezvous: every arriving thread waits until `want` distinct
/// threads have arrived, or until the deadline has passed.
struct Rendezvous {
    seen: Mutex<HashSet<ThreadId>>,
    arrived: Condvar,
    want: usize,
    deadline: Instant,
}

impl Rendezvous {
    fn new(want: usize) -> Rendezvous {
        Rendezvous {
            seen: Mutex::default(),
            arrived: Condvar::new(),
            want,
            deadline: Instant::now() + Duration::from_secs(30),
        }
    }

    /// Arrive, and wait for the others; whether all `want` arrived.
    fn meet(&self) -> bool {
        let mut seen = self.seen.lock().expect("rendezvous lock");
        seen.insert(std::thread::current().id());
        self.arrived.notify_all();
        let left = self.deadline.saturating_duration_since(Instant::now());
        let (seen, _) = self
            .arrived
            .wait_timeout_while(seen, left, |s| s.len() < self.want)
            .expect("rendezvous lock");
        seen.len() >= self.want
    }
}

#[test]
fn two_jobs_share_the_same_worker_threads() {
    // Two sequential "jobs". In each, every item waits until the caller and
    // every persistent worker are inside the job at once: a thread blocks in
    // the first item it claims, so only the others can release it. Both jobs
    // therefore see exactly the same workers, whatever the timing.
    let workers = shared_pool_workers();
    let me = std::thread::current().id();
    let job = || {
        let r = Rendezvous::new(workers + 1);
        let met = parallel_map((0..4096u64).collect(), |_, _| r.meet());
        assert!(met.iter().all(|&m| m), "not every pool worker joined the job within 30 s");
        r.seen.into_inner().unwrap()
    };
    let a = job();
    let b = job();
    assert!(a.contains(&me) && b.contains(&me), "the caller drains its own batch");
    assert_eq!(a.len(), workers + 1);
    assert_eq!(a, b, "the same persistent workers serve both calls");
}
