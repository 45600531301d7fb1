//! Deterministic persistent worker pool with a low-overhead round barrier.
//!
//! [`WorkerPool::map_with_arena_into`] fans independent jobs over up to
//! `workers` threads and writes results **in input order**;
//! [`WorkerPool::for_chunks_mut`] does the same for fixed chunks of a
//! mutable slice. Jobs must be independent (the closure takes `&self` state
//! only through `Sync` captures); all order-sensitive effects belong in the
//! caller's commit phase, which runs sequentially over the returned,
//! input-ordered results. This snapshot-compute / ordered-commit split is
//! what makes `workers = N` bit-identical to `workers = 1`.
//!
//! # Persistent threads and the spin-then-park barrier
//!
//! Worker threads are spawned once when the pool is built and live until it
//! is dropped. A dispatch publishes a type-erased job pointer and bumps an
//! epoch counter (release ordering); workers observe the new epoch (acquire
//! ordering), run their lanes, and decrement a completion counter the
//! dispatching thread spins on. Between dispatches workers **spin briefly
//! and then park** on a condvar: round loops with back-to-back dispatches
//! (train → aggregate → eval) never pay a futex wake-up, while idle phases
//! (setup, checkpointing) cost no CPU. When the pool is oversubscribed
//! (more workers than hardware threads) the spin phase is skipped entirely
//! — spinning would only steal cycles from the lanes doing real work.
//!
//! # Work-stealing lane assignment
//!
//! Items are assigned through per-lane **index queues**: lane `l` of `W`
//! starts on the contiguous range `[l·n/W, (l+1)·n/W)` and claims it from
//! the front in chunks; once its own queue drains it *steals* chunks from
//! the back of other lanes' queues. A slow item therefore cannot strand the
//! rest of its lane's range — idle lanes pick it up. Chunk size adapts to
//! the measured barrier wait (long waits shrink chunks so stealing gets
//! finer; negligible waits grow them to amortize the claim CAS). Because
//! every output lands in the slot of its input index and jobs are
//! independent, stealing moves only *where* work runs, never what it
//! produces: results are bitwise identical at any worker count, chunk size,
//! and steal schedule.
//!
//! Dispatches of `TINY_INLINE` (two) or fewer items run inline on the calling
//! thread — a tiny round is cheaper to run sequentially than to pay the
//! epoch handoff.
//!
//! The dispatching thread itself runs lane 0, so a `workers = W` pool holds
//! `W − 1` helper threads and `workers = 1` never synchronizes at all.
//!
//! [`WorkerArenas`] extends this with per-worker scratch state that lives
//! *across* calls (and therefore across rounds): each lane owns one arena
//! for the duration of a call, so a job can reuse the previous round's
//! buffers instead of allocating fresh ones. Arenas must be history-free —
//! a job's output may depend only on its input, never on which arena served
//! it or what ran in it before — which preserves the bitwise
//! workers-N ≡ workers-1 equivalence.
//!
//! The zero-allocation entry points ([`WorkerPool::map_with_arena_into`],
//! [`WorkerPool::for_chunks_mut`], [`WorkerPool::for_chunks_mut_with_arena`])
//! reuse caller-owned input/output buffers, so a steady-state dispatch
//! touches the allocator exactly zero times at any worker count.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Per-worker scratch arenas that persist across pooled calls.
///
/// The pool hands lane `i` exclusive access to `arenas[i]` for the whole
/// call; between calls the arenas (and their grown buffers) are retained, so
/// steady-state rounds run allocation-free. Checkpoint/resume does not
/// serialize arenas: they are pure scratch and must never carry state.
#[derive(Debug, Default)]
pub struct WorkerArenas<A> {
    arenas: Vec<A>,
}

impl<A> WorkerArenas<A> {
    /// Creates an empty arena set; arenas are built lazily by the pooled
    /// calls via their `init` closure.
    pub fn new() -> Self {
        Self { arenas: Vec::new() }
    }

    /// Number of arenas built so far.
    pub fn len(&self) -> usize {
        self.arenas.len()
    }

    /// Whether no arena has been built yet.
    pub fn is_empty(&self) -> bool {
        self.arenas.is_empty()
    }

    /// Grows the set to at least `n` arenas using `init`.
    fn ensure_with<I: FnMut() -> A>(&mut self, n: usize, mut init: I) {
        while self.arenas.len() < n {
            self.arenas.push(init());
        }
    }
}

/// The job a dispatch publishes to the helper threads: called once per
/// helper lane. The `'static` lifetime is a lie confined to [`Shared`] —
/// the dispatching thread blocks until every helper has finished before the
/// underlying closure goes out of scope.
type Job = &'static (dyn Fn(usize) + Sync);

/// State shared between the dispatching thread and the helper threads.
struct Shared {
    /// Bumped (release) once per dispatch; helpers wait for it to move.
    epoch: AtomicU64,
    /// The published job; valid for epochs `> 0` until `remaining` hits 0.
    job: UnsafeCell<Option<Job>>,
    /// Helpers still running the current job; the dispatcher spins on 0.
    remaining: AtomicUsize,
    /// Helpers currently parked on `cvar` (only mutated under `lock`).
    sleepers: AtomicUsize,
    /// Pool is shutting down; helpers observing this after an epoch bump exit.
    shutdown: AtomicBool,
    /// First panic payload captured from a helper lane this dispatch.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Park/wake for the spin-then-park barrier.
    lock: Mutex<()>,
    cvar: Condvar,
    /// Nanoseconds the dispatcher spent waiting on helpers after finishing
    /// its own lane (the barrier cost), accumulated until drained.
    wait_ns: AtomicU64,
    /// Nanoseconds spent publishing jobs (handoff cost), accumulated.
    dispatch_ns: AtomicU64,
    /// Barrier wait of the most recent dispatch only (autotune feedback).
    last_wait_ns: AtomicU64,
    /// Per-lane index ranges for the queued dispatch, packed
    /// `head << 32 | tail`; rewritten before every queued epoch.
    queues: Vec<AtomicU64>,
    /// Adaptive chunk-size hint for queue claims, bounded to
    /// `[CHUNK_HINT_MIN, CHUNK_HINT_MAX]`.
    chunk_hint: AtomicU64,
    /// Successful steal claims since the last drain.
    steals: AtomicU64,
    /// Items moved by steal claims since the last drain.
    stolen_items: AtomicU64,
    /// Spin iterations before a helper parks; 0 when oversubscribed.
    spin_limit: u32,
}

// SAFETY: `job` is only written by the dispatching thread while no helper
// is between epoch-observation and its `remaining` decrement; the
// release/acquire pair on `epoch` orders the write before any read.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

/// Spin iterations before the *dispatcher* yields while waiting on helpers.
const DISPATCH_SPIN: u32 = 1 << 10;
/// Spin iterations before an idle *helper* parks on the condvar.
const HELPER_SPIN: u32 = 1 << 14;
/// Dispatches of this many items or fewer run inline on the calling thread:
/// the epoch handoff costs more than the work it would distribute.
const TINY_INLINE: usize = 2;
/// Smallest chunk a queue claim may take.
const CHUNK_HINT_MIN: u64 = 1;
/// Largest chunk a queue claim may take.
const CHUNK_HINT_MAX: u64 = 256;
/// Initial chunk-size hint before any barrier feedback arrives.
const CHUNK_HINT_INIT: u64 = 8;

/// Packs a queue range `[head, tail)` into one atomic word.
fn pack_range(head: usize, tail: usize) -> u64 {
    ((head as u64) << 32) | tail as u64
}

/// Claims up to `chunk` indices from the *front* of `q` (the owner side).
/// Returns the claimed `[begin, end)` range, or `None` when empty.
fn claim_front(q: &AtomicU64, chunk: usize) -> Option<(usize, usize)> {
    let mut cur = q.load(Ordering::Acquire);
    loop {
        let head = (cur >> 32) as usize;
        let tail = (cur & 0xFFFF_FFFF) as usize;
        if head >= tail {
            return None;
        }
        let take = chunk.min(tail - head);
        match q.compare_exchange_weak(
            cur,
            pack_range(head + take, tail),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some((head, head + take)),
            Err(seen) => cur = seen,
        }
    }
}

/// Claims up to `chunk` indices from the *back* of `q` (the thief side).
/// Front and back claims race on the same word, so owner and thieves can
/// never hand out overlapping ranges.
fn claim_back(q: &AtomicU64, chunk: usize) -> Option<(usize, usize)> {
    let mut cur = q.load(Ordering::Acquire);
    loop {
        let head = (cur >> 32) as usize;
        let tail = (cur & 0xFFFF_FFFF) as usize;
        if head >= tail {
            return None;
        }
        let take = chunk.min(tail - head);
        match q.compare_exchange_weak(
            cur,
            pack_range(head, tail - take),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some((tail - take, tail)),
            Err(seen) => cur = seen,
        }
    }
}

fn helper_loop(shared: Arc<Shared>, lane: usize) {
    // The baseline is the epoch at spawn time (0), NOT a fresh load: a
    // dispatch can land before this thread first runs, and reading the
    // already-bumped epoch here would make the helper skip that job —
    // leaving the dispatcher spinning on a count that never drains.
    let mut seen = 0u64;
    loop {
        // Wait for the next epoch: spin briefly, then park.
        let mut spins = 0u32;
        let current = loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                break e;
            }
            if spins < shared.spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else {
                let mut guard = shared.lock.lock().expect("pool lock poisoned");
                shared.sleepers.fetch_add(1, Ordering::Relaxed);
                loop {
                    let e = shared.epoch.load(Ordering::Acquire);
                    if e != seen {
                        shared.sleepers.fetch_sub(1, Ordering::Relaxed);
                        drop(guard);
                        break;
                    }
                    guard = shared.cvar.wait(guard).expect("pool lock poisoned");
                }
                break shared.epoch.load(Ordering::Acquire);
            }
        };
        seen = current;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the epoch acquire pairs with the dispatcher's release
        // store, ordering the job write before this read.
        let job = unsafe { (*shared.job.get()).expect("dispatch published no job") };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(lane))) {
            let mut slot = shared.panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        shared.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// The spawned helper threads plus shared barrier state; dropped (and
/// joined) when the last [`WorkerPool`] clone goes away.
struct PoolCore {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Serializes dispatches: jobs must never dispatch on their own pool.
    dispatching: AtomicBool,
}

impl PoolCore {
    fn new(workers: usize) -> Self {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            lock: Mutex::new(()),
            cvar: Condvar::new(),
            wait_ns: AtomicU64::new(0),
            dispatch_ns: AtomicU64::new(0),
            last_wait_ns: AtomicU64::new(0),
            queues: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            chunk_hint: AtomicU64::new(CHUNK_HINT_INIT),
            steals: AtomicU64::new(0),
            stolen_items: AtomicU64::new(0),
            // Oversubscribed helpers park immediately: spinning on a lane
            // that shares a hardware thread with working lanes only delays
            // the barrier.
            spin_limit: if workers > hardware { 0 } else { HELPER_SPIN },
        });
        let threads = (1..workers)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("collapois-worker-{lane}"))
                    .spawn(move || helper_loop(shared, lane))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            shared,
            threads,
            dispatching: AtomicBool::new(false),
        }
    }

    /// Publishes `f` to every lane (helpers run lanes `1..workers`, the
    /// calling thread runs lane 0) and blocks until all lanes finish.
    /// Propagates the first panic from any lane.
    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        assert!(
            !self.dispatching.swap(true, Ordering::Acquire),
            "nested dispatch on the same WorkerPool (jobs must not dispatch)"
        );
        let start = Instant::now();
        let helpers = self.threads.len();
        // SAFETY: helpers only dereference the job between the epoch bump
        // below and their `remaining` decrement, and this thread blocks on
        // `remaining == 0` before `f` leaves scope — the 'static is never
        // outlived in practice.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared.remaining.store(helpers, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        // Wake parked helpers. Checking `sleepers` under the lock pairs
        // with helpers re-checking the epoch under the same lock before
        // waiting, so no wake-up can be lost.
        {
            let _guard = self.shared.lock.lock().expect("pool lock poisoned");
            if self.shared.sleepers.load(Ordering::Relaxed) > 0 {
                self.shared.cvar.notify_all();
            }
        }
        self.shared
            .dispatch_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);

        // Lane 0 on the calling thread.
        let local = catch_unwind(AssertUnwindSafe(|| f(0)));

        // Barrier: wait for the helper lanes.
        let wait_start = Instant::now();
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            if spins < DISPATCH_SPIN {
                spins += 1;
                std::hint::spin_loop();
            } else {
                spins = 0;
                std::thread::yield_now();
            }
        }
        let waited = wait_start.elapsed().as_nanos() as u64;
        self.shared.wait_ns.fetch_add(waited, Ordering::Relaxed);
        self.shared.last_wait_ns.store(waited, Ordering::Relaxed);
        unsafe { *self.shared.job.get() = None };
        self.dispatching.store(false, Ordering::Release);

        if let Err(payload) = local {
            resume_unwind(payload);
        }
        let helper_panic = self
            .shared
            .panic
            .lock()
            .expect("panic slot poisoned")
            .take();
        if let Some(payload) = helper_panic {
            resume_unwind(payload);
        }
    }

    /// Queued dispatch: runs `work(lane, begin, end)` over disjoint
    /// subranges that exactly cover `0..n`. Lanes drain their own
    /// contiguous range from the front, then steal chunks from the back of
    /// other lanes' queues until every queue is empty. The chunk size comes
    /// from the adaptive hint, clamped so each lane's initial range holds
    /// at least a few chunks; after the barrier the hint is steered by the
    /// dispatch's measured wait fraction.
    fn run_queued(&self, workers: usize, n: usize, work: &(dyn Fn(usize, usize, usize) + Sync)) {
        debug_assert!(n <= u32::MAX as usize, "queued dispatch holds u32 indices");
        debug_assert_eq!(self.shared.queues.len(), workers);
        for (lane, q) in self.shared.queues.iter().enumerate() {
            q.store(
                pack_range(lane * n / workers, (lane + 1) * n / workers),
                Ordering::Relaxed,
            );
        }
        let hint = self.shared.chunk_hint.load(Ordering::Relaxed);
        // Keep at least ~4 claims per lane so there is something to steal.
        let chunk = (hint as usize).min((n / (workers * 4)).max(1));
        let start = Instant::now();
        let shared = &self.shared;
        self.run(&|lane| {
            while let Some((begin, end)) = claim_front(&shared.queues[lane], chunk) {
                work(lane, begin, end);
            }
            // Queues only ever shrink within a dispatch, so one pass over
            // the victims (draining each) observes every item claimed.
            let mut steals = 0u64;
            let mut stolen = 0u64;
            for offset in 1..workers {
                let victim = (lane + offset) % workers;
                while let Some((begin, end)) = claim_back(&shared.queues[victim], chunk) {
                    steals += 1;
                    stolen += (end - begin) as u64;
                    work(lane, begin, end);
                }
            }
            if steals > 0 {
                shared.steals.fetch_add(steals, Ordering::Relaxed);
                shared.stolen_items.fetch_add(stolen, Ordering::Relaxed);
            }
        });
        // Autotune: a dispatch that spent >25 % of its wall clock waiting on
        // the barrier was imbalanced — halve the chunk so stealing divides
        // finer. Under 5 % the lanes were level — double it to amortize the
        // claim CAS. Dispatches are serialized, so the plain store is safe.
        let total_ns = (start.elapsed().as_nanos() as u64).max(1);
        let waited = self.shared.last_wait_ns.load(Ordering::Relaxed);
        let steered = if waited.saturating_mul(4) > total_ns {
            (hint / 2).max(CHUNK_HINT_MIN)
        } else if waited.saturating_mul(20) < total_ns {
            (hint * 2).min(CHUNK_HINT_MAX)
        } else {
            hint
        };
        if steered != hint {
            self.shared.chunk_hint.store(steered, Ordering::Relaxed);
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        {
            let _guard = self.shared.lock.lock().expect("pool lock poisoned");
            self.shared.cvar.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fixed-width fan-out helper over persistent worker threads.
///
/// Cloning is cheap and shares the underlying threads; the threads are
/// joined when the last clone is dropped. A `workers = 1` pool holds no
/// threads and runs everything inline.
#[derive(Clone)]
pub struct WorkerPool {
    workers: usize,
    core: Option<Arc<PoolCore>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

/// Raw-pointer capsule so job closures can index disjoint slots of a
/// caller-owned buffer from multiple lanes.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Sync for SyncPtr<T> {}
unsafe impl<T> Send for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl WorkerPool {
    /// Creates a pool running at most `workers` jobs concurrently.
    /// `workers = 0` is treated as 1 (fully sequential). Spawns
    /// `workers − 1` persistent helper threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            core: (workers > 1).then(|| Arc::new(PoolCore::new(workers))),
        }
    }

    /// Number of concurrent jobs this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drains the accumulated barrier cost: nanoseconds the dispatching
    /// thread spent waiting for helper lanes after finishing its own lane,
    /// plus nanoseconds spent publishing jobs, since the last drain.
    /// Always `(0, 0)` for a sequential pool.
    pub fn take_sync_ns(&self) -> (u64, u64) {
        match &self.core {
            Some(core) => (
                core.shared.wait_ns.swap(0, Ordering::Relaxed),
                core.shared.dispatch_ns.swap(0, Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    /// Drains the work-stealing counters since the last drain: `(steal
    /// claims, items moved by steals)`. Always `(0, 0)` for a sequential
    /// pool — there is nobody to steal from.
    pub fn take_steal_stats(&self) -> (u64, u64) {
        match &self.core {
            Some(core) => (
                core.shared.steals.swap(0, Ordering::Relaxed),
                core.shared.stolen_items.swap(0, Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    /// Runs `work(lane, &mut arena)` once on every lane's own thread — a
    /// pinned dispatch that bypasses the stealing queues — growing
    /// `arenas` to one per lane first.
    ///
    /// Work-stealing makes lane participation schedule-dependent: an
    /// ordinary dispatch gives no guarantee that any particular helper
    /// thread runs anything, so state that grows on first use — lazily
    /// sized arena buffers, thread-local kernel scratch — can pay its
    /// one-off allocations arbitrarily late. Callers that need
    /// allocation-free steady state (the zero-alloc round-loop tests)
    /// warm every lane with this before they start counting.
    pub fn warm_lanes<A, I, F>(&self, arenas: &mut WorkerArenas<A>, init: I, work: F)
    where
        A: Send,
        I: FnMut() -> A,
        F: Fn(usize, &mut A) + Sync,
    {
        arenas.ensure_with(self.workers, init);
        match &self.core {
            Some(core) => {
                let arenas_ptr = SyncPtr(arenas.arenas.as_mut_ptr());
                core.run(&|lane| {
                    // SAFETY: `lane` is unique to the executing thread for
                    // the whole dispatch, so this is the only live
                    // reference to its arena slot.
                    work(lane, unsafe { &mut *arenas_ptr.get().add(lane) });
                });
            }
            None => work(0, &mut arenas.arenas[0]),
        }
    }

    /// Runs `work(lane, begin, end)` over disjoint subranges covering
    /// `0..n`, each index handed to exactly one lane. Sequential pools and
    /// tiny dispatches (`n <= TINY_INLINE`) run inline as lane 0 with no
    /// synchronization; otherwise the queued work-stealing dispatch runs.
    fn run_ranges(&self, n: usize, work: &(dyn Fn(usize, usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        match &self.core {
            Some(core) if n > TINY_INLINE => core.run_queued(self.workers, n, work),
            _ => work(0, 0, n),
        }
    }

    /// Number of lanes a dispatch over `n` items can touch (and therefore
    /// how many arenas it needs): 1 on the inline paths, all of them on the
    /// queued path — stealing can route any index to any lane.
    fn lanes_for(&self, n: usize) -> usize {
        if self.workers == 1 || n <= TINY_INLINE {
            1
        } else {
            self.workers
        }
    }

    /// Applies `f` to every item, draining `items` and writing one output
    /// per item into `out` (cleared first) in input order, and hands each
    /// lane a persistent scratch arena from `arenas` (built on demand with
    /// `init`, reused verbatim on subsequent calls).
    ///
    /// `f` receives `(input_index, item, arena)`. With one worker (or a
    /// tiny input) this runs inline on the caller's thread; otherwise items
    /// flow through the work-stealing index queues. Because each output
    /// lands in the slot of its input index, the result is independent of
    /// scheduling, worker count, and steal order.
    ///
    /// Jobs must treat the arena as pure scratch: the output for an item
    /// must not depend on which arena served it or on anything a previous
    /// job left behind. Under that contract the result is bitwise identical
    /// across worker counts.
    ///
    /// Both buffers' capacity is reused: in steady state — once `out` has
    /// grown to the high-water item count and every arena exists — a call
    /// performs no heap allocation at any worker count.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`; `items` is left empty (unprocessed
    /// elements leak) and `out` empty in that case.
    pub fn map_with_arena_into<A, T, U, F, I>(
        &self,
        arenas: &mut WorkerArenas<A>,
        items: &mut Vec<T>,
        out: &mut Vec<U>,
        init: I,
        f: F,
    ) where
        A: Send,
        T: Send,
        U: Send,
        F: Fn(usize, T, &mut A) -> U + Sync,
        I: FnMut() -> A,
    {
        let n = items.len();
        out.clear();
        if n == 0 {
            return;
        }
        arenas.ensure_with(self.lanes_for(n), init);
        out.reserve(n);
        let items_ptr = SyncPtr(items.as_mut_ptr());
        let out_ptr = SyncPtr(out.as_mut_ptr());
        let arenas_ptr = SyncPtr(arenas.arenas.as_mut_ptr());
        // Elements are moved out through raw reads below; drop the vec's
        // claim on them first so a panicking lane cannot double-drop.
        unsafe { items.set_len(0) };
        self.run_ranges(n, &|lane, begin, end| {
            // SAFETY: `lane` is unique to the executing thread for the
            // whole dispatch, so this is the only live reference to its
            // arena slot — stealing reroutes indices, never arenas.
            let arena = unsafe { &mut *arenas_ptr.get().add(lane) };
            for i in begin..end {
                // SAFETY: the queue protocol hands each index to exactly
                // one lane and both buffers hold >= n slots.
                let item = unsafe { std::ptr::read(items_ptr.get().add(i)) };
                let value = f(i, item, arena);
                unsafe { std::ptr::write(out_ptr.get().add(i), value) };
            }
        });
        // SAFETY: every slot 0..n was written by exactly one lane.
        unsafe { out.set_len(n) };
    }

    /// Splits `data` into fixed-length chunks (`chunk_len` elements, last
    /// one shorter) and runs `f(chunk_index, chunk)` for every chunk in
    /// parallel, mutating the chunks in place. Chunk boundaries depend only
    /// on `data.len()` and `chunk_len` — never on the worker count — which
    /// is the shard-boundary determinism rule: any per-chunk computation is
    /// bitwise identical at every worker count.
    ///
    /// Allocation-free at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`; propagates panics from `f`.
    pub fn for_chunks_mut<U, F>(&self, data: &mut [U], chunk_len: usize, f: F)
    where
        U: Send,
        F: Fn(usize, &mut [U]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let n = data.len();
        if n == 0 {
            return;
        }
        let nchunks = n.div_ceil(chunk_len);
        let base = SyncPtr(data.as_mut_ptr());
        self.run_ranges(nchunks, &|_lane, cbegin, cend| {
            for c in cbegin..cend {
                let start = c * chunk_len;
                let end = (start + chunk_len).min(n);
                // SAFETY: chunks are disjoint and within bounds; the queue
                // protocol hands each chunk index to exactly one lane.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                f(c, chunk);
            }
        });
    }

    /// [`WorkerPool::for_chunks_mut`] with a persistent per-lane scratch
    /// arena (same contract as [`WorkerPool::map_with_arena_into`]: outputs
    /// must not depend on which arena served a chunk).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`; propagates panics from `f`.
    pub fn for_chunks_mut_with_arena<A, U, F, I>(
        &self,
        arenas: &mut WorkerArenas<A>,
        data: &mut [U],
        chunk_len: usize,
        init: I,
        f: F,
    ) where
        A: Send,
        U: Send,
        F: Fn(usize, &mut [U], &mut A) + Sync,
        I: FnMut() -> A,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let n = data.len();
        if n == 0 {
            return;
        }
        let nchunks = n.div_ceil(chunk_len);
        arenas.ensure_with(self.lanes_for(nchunks), init);
        let base = SyncPtr(data.as_mut_ptr());
        let arenas_ptr = SyncPtr(arenas.arenas.as_mut_ptr());
        self.run_ranges(nchunks, &|lane, cbegin, cend| {
            // SAFETY: `lane` is unique to the executing thread for the
            // whole dispatch, so this is the only live reference to its
            // arena slot.
            let arena = unsafe { &mut *arenas_ptr.get().add(lane) };
            for c in cbegin..cend {
                let start = c * chunk_len;
                let end = (start + chunk_len).min(n);
                // SAFETY: chunks are disjoint and within bounds; the queue
                // protocol hands each chunk index to exactly one lane.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                f(c, chunk, arena);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fan-out most tests drive: `map_with_arena_into` over unit
    /// arenas and fresh buffers.
    fn map<T, U, F>(pool: &WorkerPool, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        map_arenas(
            pool,
            &mut WorkerArenas::new(),
            items,
            || (),
            |i, x, _| f(i, x),
        )
    }

    /// `map_with_arena_into` over fresh item and output buffers.
    fn map_arenas<A, T, U, F, I>(
        pool: &WorkerPool,
        arenas: &mut WorkerArenas<A>,
        mut items: Vec<T>,
        init: I,
        f: F,
    ) -> Vec<U>
    where
        A: Send,
        T: Send,
        U: Send,
        F: Fn(usize, T, &mut A) -> U + Sync,
        I: FnMut() -> A,
    {
        let mut out = Vec::new();
        pool.map_with_arena_into(arenas, &mut items, &mut out, init, f);
        out
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let out = map(&pool, items.clone(), |i, x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_matches_sequential_for_stateful_jobs() {
        // Each job derives its own value from its index only; any schedule
        // must produce the same vector.
        let seq = map(&WorkerPool::new(1), (0..100).collect(), |i, _x: usize| {
            i as u64 * 7 + 3
        });
        let par = map(&WorkerPool::new(4), (0..100).collect(), |i, _x: usize| {
            i as u64 * 7 + 3
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u32> = map(&pool, Vec::new(), |_, x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(map(&pool, vec![5u32], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn pool_survives_many_dispatches() {
        // The persistent barrier must hand off thousands of jobs without
        // wedging (regression test for lost wake-ups in spin-then-park).
        let pool = WorkerPool::new(4);
        for round in 0..2000usize {
            let out = map(&pool, vec![1u64; 16], |i, x| x + (i + round) as u64);
            assert_eq!(out.len(), 16);
            assert_eq!(out[0], 1 + round as u64);
        }
    }

    #[test]
    fn owned_items_are_dropped_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked(#[allow(dead_code)] usize);
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = WorkerPool::new(3);
        let items: Vec<Tracked> = (0..50).map(Tracked).collect();
        let out = map(&pool, items, |i, t| {
            let v = t.0 + i;
            drop(t);
            v
        });
        assert_eq!(out.len(), 50);
        assert_eq!(DROPS.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panic_in_lane_propagates() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            map(&pool, (0..32usize).collect::<Vec<_>>(), |i, x| {
                if i == 17 {
                    panic!("lane boom");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The pool must stay usable after a propagated panic.
        let out = map(&pool, vec![1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn arenas_are_built_lazily_and_reused() {
        let pool = WorkerPool::new(3);
        let mut arenas: WorkerArenas<Vec<u8>> = WorkerArenas::new();
        assert!(arenas.is_empty());
        let out = map_arenas(
            &pool,
            &mut arenas,
            (0..10usize).collect(),
            Vec::new,
            |i, x, a| {
                a.push(1); // arenas accumulate across jobs within a call...
                i + x
            },
        );
        assert_eq!(out, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        assert_eq!(arenas.len(), 3);
        // ...and persist across calls: no new arenas, contents retained.
        let total_before: usize = arenas.arenas.iter().map(Vec::len).sum();
        assert_eq!(total_before, 10);
        map_arenas(&pool, &mut arenas, vec![0usize; 4], Vec::new, |_, _, a| {
            a.push(1)
        });
        assert_eq!(arenas.len(), 3);
        let total_after: usize = arenas.arenas.iter().map(Vec::len).sum();
        assert!(total_after > total_before);
    }

    #[test]
    fn warm_lanes_runs_once_per_lane_on_distinct_threads() {
        let pool = WorkerPool::new(4);
        let mut arenas: WorkerArenas<usize> = WorkerArenas::new();
        let seen = Mutex::new(Vec::new());
        pool.warm_lanes(
            &mut arenas,
            || 0usize,
            |lane, hits| {
                *hits += 1;
                seen.lock()
                    .unwrap()
                    .push((lane, std::thread::current().id()));
            },
        );
        assert_eq!(arenas.len(), 4);
        // Every lane ran exactly once — stealing cannot skip a lane here.
        assert_eq!(arenas.arenas, vec![1usize; 4]);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(lane, _)| lane);
        assert_eq!(
            seen.iter().map(|&(lane, _)| lane).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // ...and on four distinct threads (lane 0 is the caller).
        let mut tids: Vec<_> = seen.iter().map(|&(_, tid)| tid).collect();
        tids.dedup();
        assert_eq!(tids.len(), 4);
        assert_eq!(seen[0].1, std::thread::current().id());

        // The sequential pool warms its single lane inline.
        let seq = WorkerPool::new(1);
        let mut arenas: WorkerArenas<usize> = WorkerArenas::new();
        seq.warm_lanes(&mut arenas, || 0usize, |_, hits| *hits += 1);
        assert_eq!(arenas.arenas, vec![1usize]);
    }

    #[test]
    fn map_with_arena_into_empty_input_builds_nothing() {
        let mut arenas: WorkerArenas<Vec<u8>> = WorkerArenas::new();
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = map_arenas(&pool, &mut arenas, Vec::<u8>::new(), Vec::new, |_, x, _| x);
        assert!(out.is_empty());
        assert!(arenas.is_empty());
    }

    #[test]
    fn map_with_arena_into_reuses_buffers() {
        let pool = WorkerPool::new(4);
        let mut arenas: WorkerArenas<()> = WorkerArenas::new();
        let mut items: Vec<usize> = (0..40).collect();
        let mut out: Vec<usize> = Vec::new();
        pool.map_with_arena_into(&mut arenas, &mut items, &mut out, || (), |i, x, _| i * x);
        assert!(items.is_empty());
        assert_eq!(out, (0..40).map(|x| x * x).collect::<Vec<_>>());
        let cap_items = items.capacity();
        let cap_out = out.capacity();
        // Refill and re-run: capacities must be reused, outputs replaced.
        items.extend(0..40);
        pool.map_with_arena_into(&mut arenas, &mut items, &mut out, || (), |i, x, _| i + x);
        assert_eq!(out, (0..40).map(|x| 2 * x).collect::<Vec<_>>());
        assert_eq!(items.capacity(), cap_items);
        assert_eq!(out.capacity(), cap_out);
    }

    #[test]
    fn for_chunks_mut_is_worker_count_invariant() {
        let reference: Vec<u64> = {
            let mut data: Vec<u64> = (0..103).collect();
            WorkerPool::new(1).for_chunks_mut(&mut data, 8, |c, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.wrapping_mul(31).wrapping_add(c as u64);
                }
            });
            data
        };
        for workers in [2, 3, 4, 8] {
            let mut data: Vec<u64> = (0..103).collect();
            WorkerPool::new(workers).for_chunks_mut(&mut data, 8, |c, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.wrapping_mul(31).wrapping_add(c as u64);
                }
            });
            assert_eq!(data, reference, "workers={workers}");
        }
    }

    #[test]
    fn for_chunks_mut_with_arena_covers_all_chunks() {
        let pool = WorkerPool::new(4);
        let mut arenas: WorkerArenas<Vec<usize>> = WorkerArenas::new();
        let mut data = vec![0u8; 57];
        pool.for_chunks_mut_with_arena(&mut arenas, &mut data, 10, Vec::new, |c, chunk, seen| {
            seen.push(c);
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1), "every element visited once");
        let mut all: Vec<usize> = arenas.arenas.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>(), "chunks 0..6 each ran once");
    }

    #[test]
    fn stealing_is_worker_count_invariant_under_skew() {
        // Heavily skewed per-item cost: the first indices are expensive, so
        // multi-worker runs steal aggressively. Any steal schedule must
        // produce the same output vector as the sequential run.
        fn cost(i: usize) -> u64 {
            let mut acc = i as u64 + 1;
            let iters = if i < 8 { 20_000 } else { 10 };
            for k in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        }
        let reference: Vec<u64> = (0..64).map(cost).collect();
        for workers in [1, 2, 4, 8] {
            let out = map(&WorkerPool::new(workers), (0..64usize).collect(), |i, x| {
                assert_eq!(i, x);
                cost(i)
            });
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn an_idle_lane_steals_a_stuck_lanes_queue() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        // n = 8, W = 2: lane 0 owns [0, 4), lane 1 owns [4, 8), and the
        // first dispatch claims single items (the hint is clamped to
        // n / (W * 4) = 1). Item 0 parks lane 0 until five items are done —
        // lane 1 holds only four, so the fifth must be stolen from lane 0's
        // queue. Termination is guaranteed by the steal pass.
        let out = map(&pool, (0..8usize).collect(), |i, x| {
            if i == 0 {
                while done.load(Ordering::SeqCst) < 5 {
                    std::thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            x * 2
        });
        assert_eq!(out, (0..8).map(|x| x * 2).collect::<Vec<_>>());
        let (steals, stolen) = pool.take_steal_stats();
        assert!(steals >= 1, "lane 1 must have stolen from lane 0");
        assert!((1..=8).contains(&stolen));
        assert_eq!(pool.take_steal_stats(), (0, 0), "drained");
    }

    #[test]
    fn tiny_dispatches_run_inline_on_the_caller() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let out = map(&pool, vec![1u32, 2], |_, x| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "tiny dispatch must not hand off"
            );
            x + 1
        });
        assert_eq!(out, vec![2, 3]);
        assert_eq!(pool.take_sync_ns(), (0, 0), "no epoch was published");
        assert_eq!(WorkerPool::new(1).take_steal_stats(), (0, 0));
    }

    #[test]
    fn queue_claims_are_disjoint_and_exhaustive() {
        // Hammer the claim protocol directly: every index must be handed
        // out exactly once regardless of chunk size or claim side.
        for chunk in [1, 3, 7, 64] {
            let q = AtomicU64::new(pack_range(0, 100));
            let mut seen = vec![0u8; 100];
            loop {
                let front = claim_front(&q, chunk);
                let back = claim_back(&q, chunk);
                for (begin, end) in front.into_iter().chain(back) {
                    for slot in &mut seen[begin..end] {
                        *slot += 1;
                    }
                }
                if front.is_none() && back.is_none() {
                    break;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "chunk={chunk}: {seen:?}");
        }
    }

    #[test]
    fn sync_counters_accumulate_and_drain() {
        let pool = WorkerPool::new(2);
        let _ = pool.take_sync_ns();
        map(&pool, (0..64usize).collect::<Vec<_>>(), |_, x| x + 1);
        let (_wait, dispatch) = pool.take_sync_ns();
        assert!(dispatch > 0, "dispatch cost must be recorded");
        assert_eq!(pool.take_sync_ns(), (0, 0), "drained");
        // Sequential pools never synchronize.
        assert_eq!(WorkerPool::new(1).take_sync_ns(), (0, 0));
    }
}
