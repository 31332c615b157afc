//! SIGTERM / SIGINT → graceful-drain flag.
//!
//! The daemon needs exactly one bit from the OS: "stop accepting and
//! drain". A full signal-handling dependency would be the only non-std
//! crate in the workspace, so instead we declare libc's `signal(2)`
//! directly (it is in every libc the workspace builds against) and do
//! nothing in the handler but store into an `AtomicBool` — the one
//! operation that is unconditionally async-signal-safe. The shared
//! accept loop (`accept`) checks the flag before every `accept`; the
//! signal also ends its readiness wait early, since `poll(2)` returns
//! `EINTR` once a handler has run.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler (or [`request_shutdown`]); checked by the
/// accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)`. Returns the previous handler (opaque here).
        pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub extern "C" fn handle(_signum: i32) {
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::Release);
    }
}

/// Installs the SIGINT/SIGTERM handlers (no-op off unix — tests there
/// use [`request_shutdown`]).
pub fn install_handlers() {
    #[cfg(unix)]
    unsafe {
        sys::signal(sys::SIGINT, sys::handle);
        sys::signal(sys::SIGTERM, sys::handle);
    }
}

/// Requests shutdown from inside the process (equivalent to receiving
/// SIGTERM); used by tests and the server's own drain path.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::Release);
}

/// Whether a shutdown has been requested.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

/// Clears the flag (test isolation only: the flag is process-global).
pub fn reset_for_test() {
    SHUTDOWN.store(false, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_flag() {
        reset_for_test();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_for_test();
    }
}
