//! Graceful SIGINT/SIGTERM handling for the long-running `repro`
//! drivers (`engine`, `control`, `serve`, `soak`) — std-only, no
//! external crates.
//!
//! The handler does the only async-signal-safe thing possible: it sets
//! a process-global atomic flag. Drivers install it once
//! ([`install`]) and watch the flag — either directly between
//! segments, or via [`drain_watch`], which polls from a helper thread
//! and translates the first observation into
//! [`Engine::request_drain`](smartwatch_runtime::Engine::request_drain),
//! so the mesh quiesces through the exact end-of-trace path and the
//! final summary is still conserved.
//!
//! The second signal falls back to the process default (the handler is
//! restored after the first delivery), so a wedged run can still be
//! killed with a second Ctrl-C.

use smartwatch_runtime::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the handler on the first SIGINT/SIGTERM.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// `SIG_DFL` — restore default disposition (see `signal(2)`).
const SIG_DFL: usize = 0;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

// The libc signal-disposition call; std links libc on every supported
// platform, so declaring it here adds no dependency. `signal(2)`
// semantics (one-shot re-arm handled below) are all we need for a
// set-a-flag handler.
#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        pub(crate) fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The installed handler: restore the default disposition (so a
    /// second signal kills a wedged process) and raise the flag. Both
    /// operations are async-signal-safe.
    pub(crate) extern "C" fn on_signal(signum: i32) {
        unsafe {
            signal(signum, super::SIG_DFL);
        }
        super::INTERRUPTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Install the SIGINT/SIGTERM flag handler. Idempotent; call once at
/// driver start.
#[allow(unsafe_code)]
pub fn install() {
    unsafe {
        ffi::signal(SIGINT, ffi::on_signal as *const () as usize);
        ffi::signal(SIGTERM, ffi::on_signal as *const () as usize);
    }
}

/// Whether a SIGINT/SIGTERM has been observed.
pub(crate) fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// The `sw-signal` helper thread of one run ([`drain_watch`]).
/// Dropping it wakes the thread, so it joins without waiting out its
/// poll period.
pub(crate) struct DrainWatch {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DrainWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            h.join().ok();
        }
    }
}

/// Watch the interrupt flag from a helper thread for the duration of a
/// run: the first observation calls `engine.request_drain()`, so the
/// running segment quiesces gracefully and its report stays conserved.
/// Dropping the guard stops the watcher.
pub(crate) fn drain_watch(engine: &Arc<Engine>) -> DrainWatch {
    let engine = Arc::clone(engine);
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("sw-signal".into())
        .spawn(move || {
            while !thread_stop.load(Ordering::Acquire) {
                if interrupted() {
                    engine.request_drain();
                    return;
                }
                // A spurious wake only makes the next poll early.
                std::thread::park_timeout(Duration::from_millis(25));
            }
        })
        .expect("spawn sw-signal");
    DrainWatch {
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clear the flag (drivers treat it as latched).
    fn reset() {
        INTERRUPTED.store(false, Ordering::SeqCst);
    }
    use smartwatch_runtime::EngineConfig;

    /// Raise the flag as if a signal had arrived.
    fn trigger() {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    #[test]
    fn flag_latches_and_resets() {
        reset();
        assert!(!interrupted());
        trigger();
        assert!(interrupted());
        reset();
        assert!(!interrupted());
    }

    #[test]
    fn drain_watch_translates_the_flag_into_a_drain_request() {
        reset();
        let engine = Arc::new(Engine::new(EngineConfig::new(1)));
        let watch = drain_watch(&engine);
        assert!(!engine.drain_requested());
        trigger();
        // The watcher polls every 25 ms; give it a few rounds.
        for _ in 0..200 {
            if engine.drain_requested() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(engine.drain_requested());
        drop(watch);
        reset();
    }
}
