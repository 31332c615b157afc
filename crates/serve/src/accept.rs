//! The accept loop shared by the daemon and the gateway.
//!
//! While no connection is pending the loop blocks in `poll(2)` until
//! the nonblocking listener is readable, so a connection is accepted
//! the moment it arrives. Each wait is capped at [`WAIT`], the bound on
//! how long an in-process stop request goes unseen. SIGTERM/SIGINT end
//! the wait at once: Linux never restarts `poll` after a signal
//! handler, so it returns `EINTR` and the loop's
//! [`signal::shutdown_requested`] check runs (a signal caught by
//! another thread is still seen within [`WAIT`]).

use crate::{lock_unpoisoned, signal};
use ptmap_trace::obs::EventLog;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest single readiness wait.
const WAIT: Duration = Duration::from_millis(50);

/// The open-connection count; drain waits for it to reach zero.
#[derive(Default)]
pub(crate) struct Connections {
    open: Mutex<usize>,
    changed: Condvar,
}

impl Connections {
    /// Waits until no connection is open and `idle()` holds (checked
    /// at least every 50 ms), or `deadline` passes; returns whether
    /// idle was reached.
    pub(crate) fn wait_idle(&self, deadline: Instant, idle: impl Fn() -> bool) -> bool {
        let mut open = lock_unpoisoned(&self.open);
        loop {
            if *open == 0 && idle() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(Duration::from_millis(50));
            open = self
                .changed
                .wait_timeout(open, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// Decrements the open-connection count however a handler exits.
struct ConnGuard(Arc<Connections>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut open = lock_unpoisoned(&self.0.open);
        *open = open.saturating_sub(1);
        self.0.changed.notify_all();
    }
}

/// Accepts connections until `stop()` or a signal asks for shutdown,
/// running `handle` on a thread named `thread` per connection.
/// `listener` must be nonblocking, or an idle `accept` never returns.
pub(crate) fn serve<H>(
    listener: &TcpListener,
    conns: &Arc<Connections>,
    log: &EventLog,
    thread: &str,
    stop: impl Fn() -> bool,
    handle: H,
) where
    H: Fn(TcpStream) + Send + Sync + 'static,
{
    let handle = Arc::new(handle);
    while !stop() && !signal::shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                *lock_unpoisoned(&conns.open) += 1;
                let guard = ConnGuard(Arc::clone(conns));
                let handle = Arc::clone(&handle);
                let _ = std::thread::Builder::new()
                    .name(thread.to_string())
                    .spawn(move || {
                        let _guard = guard;
                        handle(stream);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => wait_readable(listener, WAIT),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                log.warn(
                    "accept_error",
                    None,
                    &format!("accept: {e}; continuing"),
                    &[],
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[cfg(unix)]
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
    pub const POLLIN: i16 = 0x1;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub type Nfds = std::os::raw::c_uint;

    extern "C" {
        /// `poll(2)`.
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
}

/// Blocks until `listener` has a connection to accept, `timeout`
/// passes, or a signal handler runs.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    let mut fd = sys::PollFd {
        fd: listener.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` points to one `pollfd` (nfds = 1), exclusively
    // borrowed for the call; its descriptor stays open while `listener` is.
    if unsafe { sys::poll(&mut fd, 1, ms) } < 0
        && std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted
    {
        std::thread::sleep(timeout); // a failing poll must not spin the loop
    }
}

/// Off unix there is no `poll(2)` binding: sleep one 10 ms tick.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(10)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_trace::obs::{Level, LogFormat};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn idle_listener() -> TcpListener {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        listener
    }

    #[cfg(unix)]
    #[test]
    fn a_connection_ends_a_long_wait_at_once() {
        let listener = idle_listener();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            TcpStream::connect(addr).unwrap()
        });
        let t0 = Instant::now();
        wait_readable(&listener, Duration::from_secs(5));
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "a pending connection must end the wait, waited {waited:?}"
        );
        assert!(
            listener.accept().is_ok(),
            "the connection is ready to accept"
        );
        drop(client.join().unwrap());
    }

    #[cfg(unix)]
    #[test]
    fn an_idle_wait_lasts_its_timeout() {
        let listener = idle_listener();
        let t0 = Instant::now();
        wait_readable(&listener, Duration::from_millis(100));
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(90),
            "an idle wait must not return early, waited {waited:?}"
        );
    }

    #[test]
    fn an_idle_loop_does_not_spin() {
        let listener = idle_listener();
        let log = EventLog::new("accept-test", Level::Error, LogFormat::Text);
        let conns = Arc::new(Connections::default());
        let checks = AtomicUsize::new(0);
        let t0 = Instant::now();
        // Every iteration checks `stop` once, so its call count is the
        // iteration count: ~300 ms / 50 ms per wait, not thousands.
        serve(
            &listener,
            &conns,
            &log,
            "accept-test",
            || {
                checks.fetch_add(1, Ordering::Relaxed);
                t0.elapsed() >= Duration::from_millis(300)
            },
            |_stream| {},
        );
        let n = checks.load(Ordering::Relaxed);
        assert!(n <= 40, "idle accept loop spun {n} times in 300 ms");
    }
}
