//! Load generators. An open loop issues operations on a fixed schedule
//! whether or not earlier ones finished, and times each from its due
//! time; a closed loop runs a fixed number of clients that each issue
//! their next operation when the previous one completes.

use std::time::{Duration, Instant};

/// When one open-loop operation was due, sent, and completed.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Timing {
    /// Latency counted from the due time, so a stalled generator's wait
    /// is charged to the operations it delayed.
    pub fn latency_s(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64()
    }

    /// How late the generator sent the operation.
    pub fn lag_s(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64()
    }
}

/// Runs `op(i)` for `i = 0, 1, …` at `start + i · interval` on the
/// calling thread while `keep_going(i, due)` holds, and returns each
/// operation's timing with its result. An operation that falls behind
/// is sent as soon as the previous one returns. The generator sleeps
/// until `spin` before the due time and busy-waits the rest, so a
/// nonzero `spin` keeps the sleep's wake-up delay out of the latencies
/// at the cost of a busy core.
pub fn open_loop<T>(
    start: Instant,
    interval: Duration,
    spin: Duration,
    mut keep_going: impl FnMut(usize, Instant) -> bool,
    mut op: impl FnMut(usize) -> T,
) -> Vec<(Timing, T)> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = start + interval.mul_f64(i as f64);
        if !keep_going(i, due) {
            break;
        }
        let now = Instant::now();
        if due > now + spin {
            std::thread::sleep(due - now - spin);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let result = op(i);
        out.push((
            Timing {
                due,
                sent,
                done: Instant::now(),
            },
            result,
        ));
    }
    out
}

/// Width of the windows a closed loop's throughput is taken over.
const WINDOW: Duration = Duration::from_millis(100);

/// Runs `clients` threads that each call `op(client, j)` for
/// `j = 0, 1, …` back to back for `duration`. Returns
/// `(succeeded, failed, ops/s)`, the rate being the median over
/// 100 ms windows of completed operations, so a short stall of the
/// machine moves it less than it moves a single total.
pub fn closed_loop(
    clients: usize,
    duration: Duration,
    op: impl Fn(usize, usize) -> bool + Sync,
) -> (u64, u64, f64) {
    let start = Instant::now();
    let end = start + duration;
    let windows = (duration.as_secs_f64() / WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let per_client: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let op = &op;
                scope.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    let mut done_in = vec![0u64; windows];
                    let mut j = 0;
                    while Instant::now() < end {
                        if op(client, j) {
                            ok += 1;
                        } else {
                            failed += 1;
                        }
                        j += 1;
                        let w = (start.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                        if let Some(count) = done_in.get_mut(w) {
                            *count += 1;
                        }
                    }
                    (ok, failed, done_in)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut rates = vec![0.0; windows];
    for (_, _, done_in) in &per_client {
        for (rate, &count) in rates.iter_mut().zip(done_in) {
            *rate += count as f64 / WINDOW.as_secs_f64();
        }
    }
    (
        per_client.iter().map(|c| c.0).sum(),
        per_client.iter().map(|c| c.1).sum(),
        crate::report::median(&rates),
    )
}
