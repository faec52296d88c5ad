//! The one helper-thread guard of the bench drivers.
//!
//! The signal watch, the segment deadline and the config watcher are
//! each "call this every so often until it says stop, or until the run
//! that started it is over". [`PollGuard`] owns that once: the stop
//! flag, the named thread, the poll loop and the join on drop. What a
//! poller *does* — and any state it shares with its owner — lives in
//! the closure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A named helper thread that calls `tick` every `period` until `tick`
/// returns `false` or the guard is dropped. Dropping wakes the thread,
/// so it joins without waiting out the period.
pub struct PollGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PollGuard {
    /// Spawn thread `name`; the first `tick` runs immediately.
    pub fn spawn(
        name: &str,
        period: Duration,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) -> PollGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) && tick() {
                    // A spurious wake only makes the next tick early.
                    std::thread::park_timeout(period);
                }
            })
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        PollGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for PollGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            h.join().ok();
        }
    }
}
