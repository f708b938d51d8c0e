//! A sharded multi-producer/multi-consumer work queue with batched pops and
//! work stealing — the front end the serving engine feeds scans through.
//!
//! Producers round-robin pushes across shards so no single mutex serializes
//! admission; each worker preferentially drains its *home* shard in FIFO
//! order and steals from the others when idle. With one shard and one
//! worker the queue degenerates to a strict FIFO, which is what gives the
//! engine's single-threaded mode exact parity with the sequential
//! simulator.
//!
//! An idle worker parks on its home shard's condvar, and a push wakes a
//! parked worker *wherever* it is parked: a job that lands on the shard of
//! a worker that is busy — away for milliseconds constructing a candidate
//! layout, say — is stolen at once by an idle one, not when its park times
//! out. The wake cannot be lost. A worker announces itself in its shard's
//! `parked` count and then checks `len`, both under the shard lock; a push
//! raises `len` and then reads the counts, and notifies under the lock of
//! the shard it found a parked worker on. With every access `SeqCst`, one
//! of the two sees the other. The park's timeout is a safety net only.
//!
//! Before it parks, a worker that found every shard empty *spins*: it polls
//! `len` and `closed` for up to `SPIN` (50 µs), calling
//! [`std::hint::spin_loop`] and then [`std::thread::yield_now`] each time
//! round, and rescans the shards as soon as either moves. In the serving
//! engine's closed loop the next job arrives some 10–20 µs after a worker
//! runs dry, and waking a parked thread on a halted vCPU costs more than
//! that; a spinning worker is not counted in `parked`, so the push that
//! ends its spin takes no lock and sends no wake either. The spin runs at
//! most once per [`ShardedQueue::pop_batch`] call and strictly before the
//! park protocol above, which it leaves unchanged: a worker woken from a
//! park, or whose park timed out, parks again without spinning, so an idle
//! engine spins once after its last batch, not once per park timeout. The
//! yield leaves the vCPU to a runnable thread (the reorganizer, a client)
//! while the worker waits. On a 2-vCPU host the submit → pickup hand-off
//! (the benchmark's `engine.queue.wait_us_p50`, traced) went from 21–24 µs
//! to 9–11 µs on all four workloads, and `drift-small`'s `query_p50_us`
//! from 52.8 to 43.4 µs (medians of 10 alternating pairs).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a park lasts when nothing wakes it.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// How long an idle worker polls the queue before it parks.
const SPIN: Duration = Duration::from_micros(50);

struct Shard<T> {
    items: Mutex<VecDeque<T>>,
    available: Condvar,
    /// Workers parked (or about to park) on `available`.
    parked: AtomicUsize,
}

/// A fixed-shard MPMC queue. Unbounded; `push` never blocks.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    cursor: AtomicUsize,
    len: AtomicUsize,
    closed: AtomicBool,
    park_timeout: Duration,
    /// How long an idle worker spins before it parks ([`SPIN`]).
    spin: Duration,
    /// Batches a worker found on the scan right after a park that *timed
    /// out*: work the wake-up missed. Stays 0.
    #[cfg(test)]
    found_after_timeout: AtomicUsize,
    /// Spins started and parks entered, over all workers.
    #[cfg(test)]
    spins: AtomicUsize,
    #[cfg(test)]
    parks: AtomicUsize,
}

impl<T> ShardedQueue<T> {
    /// A queue with `shards` independent lanes (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    items: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                    parked: AtomicUsize::new(0),
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            park_timeout: PARK_TIMEOUT,
            spin: SPIN,
            #[cfg(test)]
            found_after_timeout: AtomicUsize::new(0),
            #[cfg(test)]
            spins: AtomicUsize::new(0),
            #[cfg(test)]
            parks: AtomicUsize::new(0),
        }
    }

    /// Items currently enqueued (racy, for monitoring).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the queue is currently empty (racy, for monitoring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue one item on the next shard (round-robin) and wake one parked
    /// worker, whichever shard it is parked on.
    ///
    /// # Panics
    /// Panics if the queue is closed — producers must stop before close.
    pub fn push(&self, item: T) {
        assert!(!self.closed.load(Ordering::SeqCst), "queue closed");
        let n = self.shards.len();
        let target = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut q = self.shards[target]
            .items
            .lock()
            .expect("queue shard poisoned");
        q.push_back(item);
        self.len.fetch_add(1, Ordering::SeqCst);
        drop(q);
        let shards = (0..n).map(|i| &self.shards[(target + i) % n]);
        for shard in shards {
            if shard.parked.load(Ordering::SeqCst) > 0 {
                // Under the shard lock, so the notify lands after the
                // parker it counted has started waiting.
                let _q = shard.items.lock().expect("queue shard poisoned");
                shard.available.notify_one();
                break;
            }
        }
    }

    /// Dequeue up to `max` items, preferring the `home` shard and stealing
    /// from the others when it is empty. Blocks while the queue is open and
    /// empty — spinning once, then parking; returns `None` once the queue is
    /// closed *and* fully drained.
    pub fn pop_batch(&self, home: usize, max: usize) -> Option<Vec<T>> {
        let max = max.max(1);
        let n = self.shards.len();
        let mut spun = false;
        #[cfg(test)]
        let mut timed_out = false;
        loop {
            // Home shard first (FIFO within a shard), then steal.
            for i in 0..n {
                let shard = &self.shards[(home + i) % n];
                let mut q = shard.items.lock().expect("queue shard poisoned");
                if !q.is_empty() {
                    let take = max.min(q.len());
                    let batch: Vec<T> = q.drain(..take).collect();
                    drop(q);
                    self.len.fetch_sub(batch.len(), Ordering::SeqCst);
                    #[cfg(test)]
                    if timed_out {
                        self.found_after_timeout.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(batch);
                }
            }
            if self.closed.load(Ordering::SeqCst) && self.is_empty() {
                return None;
            }
            if !spun {
                spun = true;
                if self.spin_for_work() {
                    continue;
                }
            }
            // Park on the home shard until a push or `close` notifies it.
            // Announce first, then look again: a push that missed the
            // announcement raised `len` before it, and is seen here.
            let shard = &self.shards[home % n];
            let guard = shard.items.lock().expect("queue shard poisoned");
            shard.parked.fetch_add(1, Ordering::SeqCst);
            if self.len.load(Ordering::SeqCst) == 0 && !self.closed.load(Ordering::SeqCst) {
                #[cfg(test)]
                self.parks.fetch_add(1, Ordering::Relaxed);
                let (_guard, _wait) = shard
                    .available
                    .wait_timeout(guard, self.park_timeout)
                    .expect("queue shard poisoned");
                #[cfg(test)]
                {
                    timed_out = _wait.timed_out();
                }
            }
            shard.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Poll `len` and `closed` for up to `self.spin`: whether work arrived
    /// or the queue closed before the budget ran out.
    fn spin_for_work(&self) -> bool {
        #[cfg(test)]
        self.spins.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        while start.elapsed() < self.spin {
            std::hint::spin_loop();
            std::thread::yield_now();
            if self.len.load(Ordering::SeqCst) > 0 || self.closed.load(Ordering::SeqCst) {
                return true;
            }
        }
        false
    }

    /// Close the queue: wake all waiters; `pop_batch` returns `None` once
    /// the remaining items drain.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            let _q = shard.items.lock().expect("queue shard poisoned");
            shard.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_shard_is_fifo() {
        let q = ShardedQueue::new(1);
        for i in 0..10 {
            q.push(i);
        }
        q.close();
        let mut got = Vec::new();
        while let Some(batch) = q.pop_batch(0, 3) {
            got.extend(batch);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_spreads_across_shards() {
        let q = ShardedQueue::new(4);
        for i in 0..8 {
            q.push(i);
        }
        assert_eq!(q.len(), 8);
        // each shard holds exactly 2 items
        for home in 0..4 {
            let batch = q.pop_batch(home, 2).unwrap();
            assert_eq!(batch.len(), 2);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn stealing_drains_foreign_shards() {
        let q = ShardedQueue::new(4);
        for i in 0..12 {
            q.push(i);
        }
        q.close();
        // a single consumer homed on shard 0 still sees everything
        let mut got = Vec::new();
        while let Some(batch) = q.pop_batch(0, 64) {
            got.extend(batch);
        }
        got.sort_unstable();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = Arc::new(ShardedQueue::new(3));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        q.push(p * 1_000_000 + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|home| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.pop_batch(home, 16) {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert_eq!(all.len(), 2_000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2_000, "duplicated or lost items");
    }

    /// A job that lands on the shard of a worker that is away is taken by
    /// the idle worker parked on the other shard because the push woke it,
    /// not because its park ran out.
    #[test]
    fn push_wakes_a_worker_parked_on_another_shard() {
        use std::sync::mpsc::channel;
        let mut q = ShardedQueue::new(2);
        // Long enough that a missed wake-up cannot pass for a found job: it
        // would surface, ten seconds late, in `found_after_timeout`. No
        // spin, so every job is handed over by the park/wake protocol.
        q.park_timeout = Duration::from_secs(10);
        q.spin = Duration::ZERO;
        let q = Arc::new(q);
        let (held_tx, held_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let busy = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let first = q.pop_batch(0, 1).expect("open queue");
                held_tx.send(first).unwrap();
                // Away from the queue — building a candidate, say.
                let _ = release_rx.recv();
            })
        };
        q.push(0u32); // shard 0: the busy worker's
        assert_eq!(held_rx.recv().unwrap(), vec![0]);
        let idle = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(batch) = q.pop_batch(1, 1) {
                    done_tx.send(batch[0]).unwrap();
                }
            })
        };
        // One at a time, so the idle worker is parked (or about to park)
        // again at each push; every other job lands on shard 0.
        for job in 1..=16u32 {
            q.push(job);
            assert_eq!(done_rx.recv().unwrap(), job);
        }
        assert_eq!(q.found_after_timeout.load(Ordering::Relaxed), 0);
        drop(release_tx);
        busy.join().unwrap();
        q.close();
        idle.join().unwrap();
    }

    /// Poll until `counter` reads at least `n`; fail after ten seconds.
    fn wait_for(counter: &AtomicUsize, n: usize) {
        let start = Instant::now();
        while counter.load(Ordering::Relaxed) < n {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "never reached {n}"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// A spin budget no test waits out.
    const LONG_SPIN: Duration = Duration::from_secs(20);

    /// A worker homed on shard 1 that finds the queue empty, spinning on it
    /// for [`LONG_SPIN`], in its own thread.
    fn spinning_worker() -> (
        Arc<ShardedQueue<u32>>,
        std::thread::JoinHandle<Option<Vec<u32>>>,
    ) {
        let mut q = ShardedQueue::new(2);
        q.spin = LONG_SPIN;
        let q = Arc::new(q);
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(1, 4))
        };
        wait_for(&q.spins, 1);
        (q, worker)
    }

    /// A job pushed while the worker spins — onto the other shard — is
    /// taken by the scan the spin ends in: the worker never parks.
    #[test]
    fn push_during_a_spin_is_taken_without_a_park() {
        let (q, worker) = spinning_worker();
        let pushed = Instant::now();
        q.push(7); // shard 0
        assert_eq!(worker.join().unwrap(), Some(vec![7]));
        assert!(pushed.elapsed() < LONG_SPIN / 2, "the spin missed the push");
        assert_eq!(q.parks.load(Ordering::Relaxed), 0);
        assert_eq!(q.spins.load(Ordering::Relaxed), 1);
    }

    /// `close` during a spin ends it, and the empty queue reports `None`.
    #[test]
    fn close_during_a_spin_returns_none() {
        let (q, worker) = spinning_worker();
        let closed = Instant::now();
        q.close();
        assert_eq!(worker.join().unwrap(), None);
        assert!(
            closed.elapsed() < LONG_SPIN / 2,
            "the spin missed the close"
        );
        assert_eq!(q.parks.load(Ordering::Relaxed), 0);
        assert_eq!(q.spins.load(Ordering::Relaxed), 1);
    }

    /// An idle worker spins once, then parks; when its park times out it
    /// parks again without spinning.
    #[test]
    fn idle_worker_spins_once_then_only_parks() {
        let mut q = ShardedQueue::new(1);
        q.spin = Duration::from_micros(200);
        q.park_timeout = Duration::from_millis(1);
        let q = Arc::new(q);
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let first = q.pop_batch(0, 1);
                let second = q.pop_batch(0, 1);
                (first, second)
            })
        };
        // Several timed-out parks in the first call.
        wait_for(&q.parks, 4);
        assert_eq!(q.spins.load(Ordering::Relaxed), 1);
        q.push(1);
        // The second call starts with a spin of its own.
        wait_for(&q.spins, 2);
        q.close();
        assert_eq!(worker.join().unwrap(), (Some(vec![1]), None));
        assert_eq!(q.spins.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pop_on_closed_empty_queue_returns_none() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2);
        q.close();
        assert!(q.pop_batch(0, 8).is_none());
    }
}
