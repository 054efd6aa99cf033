//! A persistent, process-wide worker pool for the dense kernels.
//!
//! Workers are spawned once (lazily, on the first parallel product) and
//! shared by every kernel invocation; a batch is a handful of boxed jobs
//! pushed onto one mutex-guarded queue. What a fork-join then costs is a
//! question of how the two hand-offs — caller → worker at the fork,
//! worker → caller at the join — are signalled. Parking both sides on
//! condvars puts two futex wakes on the critical path: an *empty*
//! four-chunk [`run_stealing`] over two threads measured 39 µs p50 /
//! 55 µs p90 on the 2-vCPU bench host, against streaming kernels that run
//! 40–400 µs — the second core bought 2 %. So both sides poll first:
//!
//! * a worker that finds the queue empty **lingers** for [`LINGER`],
//!   polling an atomic job count, before it parks on the condvar. The
//!   kernels of one trigger firing arrive tens of microseconds apart, so
//!   within a firing every fork finds its workers awake; between bursts
//!   they park, and an idle process burns nothing.
//! * the caller **polls** the batch's outstanding-job count for up to
//!   [`BARRIER_SPIN`] before it blocks; stealing keeps the join skew
//!   below one chunk, which for the streaming kernels is shorter than a
//!   futex wake.
//!
//! With both, the same empty fork-join reads ≈ 2–4 µs (`harness gemm`
//! prints the figure). Neither window is a knob: they are properties of
//! the futex round trip and the firing's kernel cadence, not of a
//! workload.
//!
//! Both polls **yield** (`sched_yield`, ≈ 0.2 µs when nothing else is
//! runnable) instead of busy-spinning. A worker that never sleeps is never
//! re-placed by the kernel's wake-up balancing, and on the bench host a
//! freshly woken worker regularly lands on the caller's own CPU and stays
//! there for tens of milliseconds to seconds: with pure spinning each
//! side then burned its whole window while the other waited for the CPU
//! (a 90 µs kernel measured 380 µs); yielding hands the CPU over at once,
//! so the degraded case costs what the single-threaded kernel costs. The
//! same holds when tests or a host application oversubscribe the machine.
//!
//! Kernels enter through [`run_stealing`]: a range of chunk indices is
//! dealt into per-worker deques (contiguous blocks, for locality), each
//! worker drains its own deque front-to-back, and a worker whose deque runs
//! dry steals single chunks from the *back* of its siblings' deques, so a
//! ragged tail or a descheduled worker is robbed instead of stalling the
//! barrier. The packed GEMM nest calls it directly (row chunks and the
//! cooperative `B` packing); [`run_row_chunks`] is the streaming kernels'
//! front end to it, with their own parallel gate.
//!
//! Underneath, [`Pool::run_scoped`] runs a batch of closures that may
//! borrow local data — one on the calling thread, the rest on the pool —
//! and **blocks until every closure has finished**: that barrier is what
//! makes handing non-`'static` borrows to long-lived workers sound. Panics
//! inside a task are caught on the worker and re-raised on the caller
//! after the barrier, so a poisoned product cannot leave a detached thread
//! writing into a freed buffer.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::gemm;

/// How long an idle worker polls for the next batch before parking: long
/// enough to bridge the serial stretches between the parallel kernels of
/// one firing (block products and bookkeeping, well under 100 µs at
/// n = 512), short enough that a worker is parked — and its core free —
/// a fraction of a millisecond after the last kernel.
const LINGER: Duration = Duration::from_micros(150);

/// How long the caller polls the batch barrier before blocking on it:
/// covers the join skew of the streaming kernels (below one 128-row
/// chunk, ≤ 100 µs) so their join never pays a futex wake, while a GEMM
/// whose last chunk runs for milliseconds still sleeps through it.
const BARRIER_SPIN: Duration = Duration::from_micros(100);

/// Output rows per work-stealing chunk of the streaming kernels (a
/// multiple of every skinny tile height).
const ROWS_PER_CHUNK: usize = 128;

/// Streaming kernels (`P·U`, `Pᵀ·V`, rank-k folds) with at least this many
/// multiply-adds split across the pool. Derived from the dispatch cost:
/// 128 Ki multiply-adds are ≈ 40 µs of single-thread streaming at
/// k = 1 (a 512×512 view takes 80 µs), so halving them saves ≈ 20 µs
/// against a fork-join of 2–4 µs. GEMM's [`gemm::PARALLEL_THRESHOLD`] is
/// seven times higher because its parallel path also packs cooperatively
/// — two fork-joins per slab.
const STREAM_PARALLEL_MIN_WORK: usize = 128 * 1024;

/// A type-erased pool job. Lifetimes are erased in [`Pool::run_scoped`];
/// the completion barrier restores the borrow discipline.
type Job = Box<dyn FnOnce() + Send>;

struct Queue {
    jobs: VecDeque<Job>,
    /// Workers blocked on `available` (the rest are running or lingering).
    parked: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    available: Condvar,
    /// `queue.jobs.len()`, mirrored so lingering workers can poll it
    /// without taking the lock. Written only under the lock.
    pending: AtomicUsize,
    spawned: AtomicUsize,
    /// Test probes, in nanoseconds on the workers' own clocks: the longest
    /// linger (from the end of a worker's last job to its last poll that
    /// found the deadline ahead), and the slowest step from giving up to
    /// parking since the last reset.
    #[cfg(test)]
    longest_linger_ns: AtomicU64,
    #[cfg(test)]
    slowest_park_step_ns: AtomicU64,
}

fn pool() -> &'static Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

impl Pool {
    fn new() -> Arc<Pool> {
        Arc::new(Pool {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                parked: 0,
            }),
            available: Condvar::new(),
            pending: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            #[cfg(test)]
            longest_linger_ns: AtomicU64::new(0),
            #[cfg(test)]
            slowest_park_step_ns: AtomicU64::new(0),
        })
    }

    /// Grows the pool to at least `want` workers (never shrinks — the
    /// pool is shared by every kernel invocation for the process lifetime).
    fn ensure_workers(self: &Arc<Self>, want: usize) {
        loop {
            let cur = self.spawned.load(Ordering::Acquire);
            if cur >= want {
                return;
            }
            if self
                .spawned
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("linview-gemm-{cur}"))
                .spawn(move || loop {
                    pool.next_job()();
                })
                .expect("spawning a gemm pool worker");
        }
    }

    /// A worker's wait for work: take a queued job if there is one, else
    /// linger on `pending` for [`LINGER`], else park until notified.
    fn next_job(&self) -> Job {
        let idle_since = Instant::now();
        let deadline = idle_since + LINGER;
        // Test probe: when this worker last found the deadline ahead.
        #[cfg(test)]
        let mut last_poll = idle_since;
        loop {
            // Acquire pairs with the Release store in `push`/`pop`, both
            // made under the queue lock this thread takes next anyway; the
            // count only decides *when* to look, never what is there.
            if self.pending.load(Ordering::Acquire) > 0 {
                if let Some(job) = self.pop(&mut self.lock()) {
                    return job;
                }
            } else {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                #[cfg(test)]
                {
                    last_poll = now;
                }
            }
            std::thread::yield_now();
        }
        #[cfg(test)]
        let gave_up = Instant::now();
        let mut q = self.lock();
        if let Some(job) = self.pop(&mut q) {
            return job;
        }
        #[cfg(test)]
        {
            let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            let linger = ns(last_poll - idle_since);
            self.longest_linger_ns.fetch_max(linger, Ordering::Relaxed);
            let step = ns(gave_up.elapsed());
            self.slowest_park_step_ns.fetch_max(step, Ordering::Relaxed);
        }
        loop {
            q.parked += 1;
            q = self.available.wait(q).expect("gemm pool queue poisoned");
            q.parked -= 1;
            if let Some(job) = self.pop(&mut q) {
                return job;
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().expect("gemm pool queue poisoned")
    }

    fn pop(&self, q: &mut Queue) -> Option<Job> {
        let job = q.jobs.pop_front();
        self.pending.store(q.jobs.len(), Ordering::Release);
        job
    }

    /// Queues `jobs` and wakes parked workers — only if there are any: a
    /// lingering worker sees `pending` on its own, and a condvar notify is
    /// a system call even with nobody waiting.
    fn push(&self, jobs: Vec<Job>) {
        let mut q = self.lock();
        q.jobs.extend(jobs);
        self.pending.store(q.jobs.len(), Ordering::Release);
        // `parked` is read under the lock a parking worker holds from its
        // last look at the queue until `wait` releases it, so a worker
        // either sees these jobs or is counted here.
        if q.parked > 0 {
            self.available.notify_all();
        }
    }
}

/// Synchronization record for one `run_scoped` batch.
struct Batch {
    /// Pool jobs of the batch still running or queued.
    remaining: AtomicUsize,
    /// True while the caller is blocked on `done` (past its spin window).
    caller_blocked: Mutex<bool>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Batch {
    /// A pool job's last act. The `AcqRel` decrement publishes the job's
    /// writes to whoever observes the count (the caller's `Acquire` loads
    /// in [`Batch::wait`]).
    fn job_finished(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let blocked = self
                .caller_blocked
                .lock()
                .expect("gemm batch lock poisoned");
            if *blocked {
                self.done.notify_all();
            }
        }
    }

    /// The barrier: spin for [`BARRIER_SPIN`], then block.
    fn wait(&self) {
        let deadline = Instant::now() + BARRIER_SPIN;
        while self.remaining.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                // The count is re-read under the lock the last job takes
                // *after* its decrement, so the wake cannot be missed.
                let mut blocked = self
                    .caller_blocked
                    .lock()
                    .expect("gemm batch lock poisoned");
                *blocked = true;
                while self.remaining.load(Ordering::Acquire) > 0 {
                    blocked = self.done.wait(blocked).expect("gemm batch lock poisoned");
                }
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Pool {
    /// Runs every task to completion, the last on the calling thread and
    /// the rest on the pool, then returns. Tasks may borrow from the
    /// caller's stack: the function does not return (or unwind) until all
    /// of them have finished, and a panic in any task is re-raised here.
    fn run_scoped<'scope>(self: &Arc<Self>, mut tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let Some(local) = tasks.pop() else { return };
        if tasks.is_empty() {
            return local();
        }
        self.ensure_workers(tasks.len());
        let batch = Arc::new(Batch {
            remaining: AtomicUsize::new(tasks.len()),
            caller_blocked: Mutex::new(false),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let jobs = tasks.into_iter().map(|task| {
            let b = Arc::clone(&batch);
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    b.panicked.store(true, Ordering::Release);
                }
                b.job_finished();
            });
            // SAFETY: `batch.wait()` below does not return until
            // `remaining` reaches zero — on the normal path and before any
            // re-panic — and every job decrements it only after its task
            // (and the borrows it captured) is gone, so every borrow
            // captured by `job` strictly outlives its execution. The
            // transmute only erases the `'scope` lifetime so the job can
            // sit in the pool's 'static queue.
            unsafe { std::mem::transmute::<_, Job>(job) }
        });
        self.push(jobs.collect());
        let local_result = catch_unwind(AssertUnwindSafe(local));
        batch.wait();
        if let Err(payload) = local_result {
            resume_unwind(payload);
        }
        if batch.panicked.load(Ordering::Acquire) {
            panic!("a gemm pool task panicked");
        }
    }
}

/// Runs `run(first_row, rows)` over `out` split into bands of whole
/// `ld`-wide rows — the schedule of every streaming kernel: inline when
/// the product has under [`STREAM_PARALLEL_MIN_WORK`] multiply-adds
/// (`work`) or one thread is budgeted, chunks on the stealing queue
/// otherwise. Chunks are [`ROWS_PER_CHUNK`] rows, fine enough to rob a
/// late worker — unless `even_split` asks for one chunk per thread: the
/// output rows of `Pᵀ·V` are *columns* of the streamed view, so a narrow
/// chunk reads each view row in short segments (128 columns = 1 KiB), and
/// two 256-column chunks measured 20 % faster than four of 128. Each chunk
/// sits behind a mutex that is locked exactly once, by whichever worker
/// runs (or steals) it.
pub(crate) fn run_row_chunks(
    out: &mut [f64],
    ld: usize,
    work: usize,
    even_split: bool,
    run: &(dyn Fn(usize, &mut [f64]) + Sync),
) {
    let rows = out.len() / ld;
    let threads = gemm::gemm_threads().min(rows.div_ceil(ROWS_PER_CHUNK));
    if threads <= 1 || work < STREAM_PARALLEL_MIN_WORK {
        return run(0, out);
    }
    let per_chunk = if even_split {
        rows.div_ceil(threads).next_multiple_of(8)
    } else {
        ROWS_PER_CHUNK
    };
    let cells: Vec<Mutex<&mut [f64]>> = out.chunks_mut(per_chunk * ld).map(Mutex::new).collect();
    run_stealing(threads, cells.len(), &|_, c| {
        let mut rows = cells[c].lock().expect("row chunk poisoned");
        run(c * per_chunk, &mut rows[..]);
    });
}

/// Runs `run(worker, chunk)` for every `chunk in 0..chunks` across
/// `workers` pool workers with chunked work-stealing.
///
/// Chunk indices are dealt into per-worker deques as contiguous blocks
/// (worker 0 gets the lowest chunks). Each worker pops its own deque from
/// the front; on empty it steals one chunk from the back of the first
/// non-empty sibling deque, scanning upward from its own index. The
/// `worker` argument passed to `run` identifies the executing worker (for
/// per-worker scratch reuse); every chunk is executed exactly once, and
/// the call blocks until all chunks have finished.
///
/// `run` must tolerate concurrent invocation for distinct chunks — chunks
/// that write shared output must own disjoint regions of it.
pub(crate) fn run_stealing(workers: usize, chunks: usize, run: &(dyn Fn(usize, usize) + Sync)) {
    pool().run_stealing(workers, chunks, run);
}

impl Pool {
    fn run_stealing(
        self: &Arc<Self>,
        workers: usize,
        chunks: usize,
        run: &(dyn Fn(usize, usize) + Sync),
    ) {
        let workers = workers.max(1).min(chunks.max(1));
        if workers <= 1 {
            for c in 0..chunks {
                run(0, c);
            }
            return;
        }
        // Contiguous block deal: worker w owns chunks [w·per + extra, ...) so
        // neighbouring chunks (adjacent output rows) stay on one worker.
        let per = chunks / workers;
        let extra = chunks % workers;
        let mut start = 0;
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let len = per + usize::from(w < extra);
                let d = (start..start + len).collect();
                start += len;
                Mutex::new(d)
            })
            .collect();
        let deques = &deques;
        let worker_loop = move |w: usize| loop {
            let own = deques[w].lock().expect("steal deque poisoned").pop_front();
            let next = own.or_else(|| {
                // Steal-on-empty: scan siblings from w+1 wrapping around,
                // taking one chunk from the back (the coldest end for the
                // victim, so owner and thief keep touching disjoint rows).
                (1..workers).find_map(|off| {
                    deques[(w + off) % workers]
                        .lock()
                        .expect("steal deque poisoned")
                        .pop_back()
                })
            });
            match next {
                Some(c) => run(w, c),
                // All deques empty: no task generates new chunks, so done.
                None => break,
            }
        };
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..workers)
            .map(|w| Box::new(move || worker_loop(w)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.run_scoped(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_a_noop() {
        pool().run_scoped(Vec::new());
    }

    #[test]
    fn single_task_runs_inline() {
        // A single task executes on the calling thread (observable via a
        // plain &mut borrow that a detached worker could never have).
        let mut hit = false;
        pool().run_scoped(vec![Box::new(|| hit = true)]);
        assert!(hit);
    }

    #[test]
    fn tasks_borrow_disjoint_caller_state() {
        let mut data = vec![0usize; 64];
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (i, chunk) in data.chunks_mut(16).enumerate() {
                tasks.push(Box::new(move || {
                    for x in chunk.iter_mut() {
                        *x = i + 1;
                    }
                }));
            }
            pool().run_scoped(tasks);
        }
        for (i, chunk) in data.chunks(16).enumerate() {
            assert!(chunk.iter().all(|&x| x == i + 1));
        }
    }

    #[test]
    fn worker_panic_is_reraised_after_the_barrier() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> =
                vec![Box::new(|| panic!("boom")), Box::new(|| {})];
            pool().run_scoped(tasks);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stealing_runs_every_chunk_exactly_once() {
        for (workers, chunks) in [(1, 7), (3, 1), (4, 13), (8, 3), (2, 0)] {
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            run_stealing(workers, chunks, &|_, c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            for (c, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "chunk {c} with {workers} workers / {chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn stealing_rebalances_a_loaded_deque() {
        // Worker 0 owns the first half of the chunks but every chunk it
        // runs is slow; with stealing, other workers must end up running
        // at least one of worker 0's originally-dealt chunks.
        let ran_by: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(usize::MAX)).collect();
        run_stealing(4, 16, &|w, c| {
            ran_by[c].store(w, Ordering::Relaxed);
            if c < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        let all_ran = ran_by
            .iter()
            .all(|w| w.load(Ordering::Relaxed) != usize::MAX);
        assert!(all_ran, "every chunk must run");
    }

    #[test]
    fn stealing_chunks_may_write_disjoint_borrows() {
        let mut data = vec![0usize; 40];
        {
            let cells: Vec<Mutex<&mut [usize]>> = data.chunks_mut(5).map(Mutex::new).collect();
            run_stealing(3, cells.len(), &|_, c| {
                for x in cells[c].lock().unwrap().iter_mut() {
                    *x = c + 1;
                }
            });
        }
        for (c, chunk) in data.chunks(5).enumerate() {
            assert!(chunk.iter().all(|&x| x == c + 1), "chunk {c}");
        }
    }

    #[test]
    fn pool_is_reused_across_batches() {
        for round in 0..8 {
            let counter = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let c = &counter;
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool().run_scoped(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 4, "round {round}");
        }
    }

    /// Blocks until every spawned worker of `pool` is parked on the
    /// condvar; false past `limit`.
    fn wait_until_parked(pool: &Pool, limit: Duration) -> bool {
        let start = Instant::now();
        while pool.lock().parked < pool.spawned.load(Ordering::Acquire) {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    fn count_chunks(pool: &Arc<Pool>, workers: usize, chunks: usize) {
        let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
        pool.run_stealing(workers, chunks, &|_, c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn an_idle_worker_is_parked_within_a_millisecond_and_wakes_again() {
        // A private pool: the process-wide one is kept busy by sibling
        // tests. The bound is on the pool (LINGER = 150 µs), taken on the
        // workers' own clocks in two parts, so how late this thread gets to
        // look does not count:
        // * the linger, from the end of a worker's last job to its last
        //   poll that found the deadline ahead, longest over every round
        //   and worker. It never exceeds LINGER and falls short of it only
        //   by the yield during which the deadline passed (on a loaded
        //   host, a time slice handed to another thread), so one poll near
        //   the deadline in any round shows the whole window;
        // * the step from giving up to parking (lock, pop, park), the
        //   slowest worker's per round. It can be preempted, so the best
        //   round counts.
        let pool = Pool::new();
        let mut quickest_step = Duration::MAX;
        for _ in 0..20 {
            pool.slowest_park_step_ns.store(0, Ordering::Relaxed);
            count_chunks(&pool, 3, 12);
            assert!(
                wait_until_parked(&pool, Duration::from_secs(10)),
                "idle workers must park"
            );
            let step = pool.slowest_park_step_ns.load(Ordering::Relaxed);
            quickest_step = quickest_step.min(Duration::from_nanos(step));
            // Run, sleep past the linger window, run: the parked workers
            // are woken through the condvar for the next batch.
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(pool.lock().parked, 2, "parked workers stay parked");
            count_chunks(&pool, 3, 12);
        }
        let linger = Duration::from_nanos(pool.longest_linger_ns.load(Ordering::Relaxed));
        assert!(
            linger + quickest_step <= Duration::from_millis(1),
            "workers lingered {linger:?} and took {quickest_step:?} more to park"
        );
    }

    #[test]
    fn a_panic_on_a_lingering_worker_is_reraised_and_the_pool_survives() {
        let pool = Pool::new();
        for round in 0..4 {
            // Leaves the workers lingering (not parked) for the next batch.
            count_chunks(&pool, 3, 6);
            let result = catch_unwind(AssertUnwindSafe(|| {
                // The last task runs on the caller; the first two — the
                // panicking one included — go to the pool.
                let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                    Box::new(|| panic!("boom")),
                    Box::new(|| {}),
                    Box::new(|| {}),
                ];
                pool.run_scoped(tasks);
            }));
            assert!(result.is_err(), "round {round}");
        }
        count_chunks(&pool, 3, 6);
    }

    #[test]
    fn concurrent_callers_all_complete() {
        // What the default parallel test runner does to the shared pool:
        // several threads fork at once, their jobs interleave on one queue.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for caller in 0..4 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        count_chunks(pool(), 2 + (caller + round) % 3, 9);
                    }
                });
            }
        });
    }
}
