//! Dependency-free socket readiness polling for the connection scheduler.
//!
//! The verdict server multiplexes hundreds of keep-alive connections per
//! worker thread, so it needs *readiness* ("which sockets have bytes / have
//! write space?") without parking a thread per socket. The std library
//! exposes no readiness API, and the no-new-dependencies rule rules out
//! `mio`/`polling`, so this module binds `poll(2)` directly with a
//! one-function `extern "C"` declaration — the oldest, most portable
//! readiness syscall, present on every unix.
//!
//! Design notes:
//!
//! * **Level-triggered.** `poll(2)` reports a socket readable for as long
//!   as bytes are buffered, so the event loop never needs to drain a
//!   socket to exhaustion in one pass to stay correct — it reads once per
//!   wakeup and gets woken again if more is pending.
//! * **Rebuilt set per wait.** The interest set is re-registered before
//!   every wait. With the O(n) `poll` interface there is nothing to gain
//!   from incremental registration, and rebuilding makes the scheduler's
//!   state trivially consistent (no stale-fd bugs on connection close).
//! * **Non-unix fallback.** On platforms without `poll(2)` the poller
//!   reports every registered socket ready after a ~1 ms nap. Combined
//!   with nonblocking sockets (every read/write handles `WouldBlock`)
//!   that degrades to short-sleep busy-polling — correct, just not as
//!   efficient; the serving targets are linux hosts.

use std::io;

#[cfg(unix)]
mod sys {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub(super) struct PollFd {
        pub(crate) fd: i32,
        pub(crate) events: i16,
        pub(crate) revents: i16,
    }

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;
    pub(super) const POLLNVAL: i16 = 0x020;

    /// `nfds_t`: `unsigned long` on linux, `unsigned int` on the BSDs and
    /// macOS.
    #[cfg(target_os = "linux")]
    pub(super) type NfdsT = usize;
    #[cfg(not(target_os = "linux"))]
    pub(super) type NfdsT = u32;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }
}

/// Anything with a pollable OS socket handle.
pub(crate) trait Pollable {
    /// The raw file descriptor to poll.
    fn raw_fd(&self) -> i32;
}

#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> Pollable for T {
    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl<T> Pollable for T {
    fn raw_fd(&self) -> i32 {
        -1
    }
}

/// A reusable readiness-poll set: register interests, [`wait`](Poller::wait)
/// once, then query per-slot readiness. One instance per worker thread,
/// cleared and re-registered every loop iteration.
#[derive(Debug, Default)]
pub(crate) struct Poller {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    #[cfg(not(unix))]
    registered: usize,
}

impl Poller {
    /// An empty poll set.
    pub(crate) fn new() -> Self {
        Poller::default()
    }

    /// Drop all registered interests (start of a scheduler iteration).
    pub(crate) fn clear(&mut self) {
        #[cfg(unix)]
        self.fds.clear();
        #[cfg(not(unix))]
        {
            self.registered = 0;
        }
    }

    /// Register a socket with the given interests; returns the slot to
    /// query after [`wait`](Poller::wait). Slots are assigned densely in
    /// registration order.
    pub(crate) fn register(
        &mut self,
        socket: &impl Pollable,
        readable: bool,
        writable: bool,
    ) -> usize {
        #[cfg(unix)]
        {
            let mut events = 0i16;
            if readable {
                events |= sys::POLLIN;
            }
            if writable {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd {
                fd: socket.raw_fd(),
                events,
                revents: 0,
            });
            self.fds.len() - 1
        }
        #[cfg(not(unix))]
        {
            let _ = (socket, readable, writable);
            self.registered += 1;
            self.registered - 1
        }
    }

    /// Block until at least one registered socket is ready or the timeout
    /// (milliseconds; `0` returns immediately) elapses. Returns how many
    /// slots have events. A signal interruption counts as "nothing ready".
    pub(crate) fn wait(&mut self, timeout_ms: i32) -> io::Result<usize> {
        // The `poller.wait` failpoint injects poll(2) failures (the worker
        // event loop must nap + rebuild, never wedge or spin).
        trackersift::failpoint::check_io("poller.wait")?;
        #[cfg(unix)]
        {
            if self.fds.is_empty() {
                if timeout_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
                }
                return Ok(0);
            }
            let ready = unsafe {
                sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as sys::NfdsT,
                    timeout_ms,
                )
            };
            if ready < 0 {
                let error = io::Error::last_os_error();
                return if error.kind() == io::ErrorKind::Interrupted {
                    Ok(0)
                } else {
                    Err(error)
                };
            }
            Ok(ready as usize)
        }
        #[cfg(not(unix))]
        {
            // Everything is "ready"; nonblocking I/O turns spurious
            // readiness into WouldBlock. Nap briefly to avoid a hot spin.
            if timeout_ms != 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok(self.registered)
        }
    }

    /// Whether the slot's socket is readable (or has an error/hangup to
    /// observe — reading is how those are surfaced).
    pub(crate) fn readable(&self, slot: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[slot].revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                != 0
        }
        #[cfg(not(unix))]
        {
            slot < self.registered
        }
    }

    /// Whether the slot's socket has write space (or a pending error).
    pub(crate) fn writable(&self, slot: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[slot].revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                != 0
        }
        #[cfg(not(unix))]
        {
            slot < self.registered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn listener_becomes_readable_on_pending_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new();

        poller.clear();
        let slot = poller.register(&listener, true, false);
        assert_eq!(poller.wait(0).expect("poll"), 0, "no connection pending");
        let _ = slot;

        let _client = TcpStream::connect(addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.clear();
            let slot = poller.register(&listener, true, false);
            if poller.wait(100).expect("poll") > 0 && poller.readable(slot) {
                break;
            }
            assert!(Instant::now() < deadline, "listener never became readable");
        }
    }

    #[test]
    fn connected_stream_reports_write_space_and_pending_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");

        let mut poller = Poller::new();
        poller.clear();
        let write_slot = poller.register(&client, false, true);
        assert!(poller.wait(1000).expect("poll") > 0);
        assert!(poller.writable(write_slot), "fresh socket has write space");

        client.write_all(b"ping").expect("write");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.clear();
            let read_slot = poller.register(&server_side, true, false);
            if poller.wait(100).expect("poll") > 0 && poller.readable(read_slot) {
                break;
            }
            assert!(Instant::now() < deadline, "bytes never became readable");
        }
    }
}
