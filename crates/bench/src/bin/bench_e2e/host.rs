//! Host discipline: pinning the process to one CPU, per-thread scheduler
//! statistics read from `/proc`, peak resident memory, and the reference
//! kernels (a fixed arithmetic kernel and a loopback ping-pong) that tell
//! a noisy neighbour from a regression.

use crate::stats::Sample;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::time::Instant;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Parse a kernel CPU list such as `0-1,4,6-7`.
pub fn parse_cpu_list(text: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in text.trim().split(',') {
        let (first, last) = match part.split_once('-') {
            Some((first, last)) => (first.trim().parse(), last.trim().parse()),
            None => (part.trim().parse(), part.trim().parse()),
        };
        if let (Ok(first), Ok(last)) = (first, last) {
            cpus.extend::<std::ops::RangeInclusive<usize>>(first..=last);
        }
    }
    cpus
}

/// The CPUs this process may run on (`Cpus_allowed_list`); empty when
/// `/proc` does not say.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Pin the calling thread to the last CPU it is allowed on (the first one
/// takes most interrupts) and return that CPU. Threads spawned afterwards
/// inherit the mask, so load generator and server time-share one core and
/// the numbers read CPU cost per operation, not parallel scaling.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is 128 readable bytes that outlive the call, the size
    // passed is exactly its size, and pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Time on CPU and time runnable-but-waiting of one or more threads, from
/// `/proc/<pid>/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl SchedStat {
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Parse a `schedstat` line: `run_ns wait_ns timeslices` (the third field
/// must be there, its value is not used).
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    let wait_ns = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(SchedStat { run_ns, wait_ns })
}

/// Summed schedstat of every live thread of this process whose name starts
/// with `prefix` (the kernel truncates names to 15 bytes, so
/// `verdict-worker-0` reads `verdict-worker-`).
pub fn threads_named(prefix: &str) -> SchedStat {
    let mut total = SchedStat::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let named = std::fs::read_to_string(dir.join("comm"))
            .is_ok_and(|comm| comm.trim_end().starts_with(prefix));
        if !named {
            continue;
        }
        if let Some(stat) = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        {
            total.run_ns += stat.run_ns;
            total.wait_ns += stat.wait_ns;
        }
    }
    total
}

/// Schedstat of the calling thread.
pub fn this_thread() -> SchedStat {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat)
        .unwrap_or_default()
}

/// Kernel id of the calling thread (the name `/proc/thread-self` links to
/// ends in it); `None` where `/proc` does not say.
pub fn this_thread_id() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time, in ns, of every live thread of this process except the ones
/// in `except` (kernel thread ids). A thread that is not running has an
/// exact value, and while the pinned caller reads this on their only CPU
/// no other thread is.
pub fn threads_run_ns(except: &[u64]) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            let id = task.file_name().to_str().and_then(|id| id.parse().ok());
            id.is_some_and(|id: u64| !except.contains(&id))
        })
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|text| parse_schedstat(&text))
        .map(|stat| stat.run_ns)
        .sum()
}

/// CPU seconds every live thread of the process has run so far. The
/// caller's own share lacks its current stint on the CPU — microseconds,
/// for a thread that blocks on a socket at every exchange, and about the
/// same at both ends of an interval.
pub fn process_cpu_s() -> f64 {
    threads_run_ns(&[]) as f64 / 1e9
}

/// Which clock a slice is read on.
///
/// `Wall` is what a user waits for. `Cpu` is the CPU time of all the
/// process's threads: pinned to one CPU, it is the wall time minus the time
/// that CPU sat idle, and the only thing the program idles on inside a
/// timed slice is the disk. The durable primary of `ingest_replicate`
/// spends three quarters of its ingest wall time in `fsync`, whose latency
/// on a shared disk drifts by 3x within minutes under sustained load
/// (measured: the tenth back-to-back run read 34k observations/s on the
/// wall clock where the first read 112k), with nothing the reference
/// kernels could see. Its disk-bound slices are therefore read on `Cpu`,
/// and the idle time is reported beside them
/// (`core.journal.disk_wait_ms_per_epoch`); how *often* the program syncs
/// is a count that repeats exactly (`core.journal.syncs_per_epoch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Cpu,
}

/// Peak resident set size of the process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the kernel's peak-RSS watermark so each workload of a
/// several-workload run reports its own peak (best effort: where `/proc`
/// refuses, the peak stays cumulative).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPUs available to the process when this was first called. The count
/// follows the affinity mask, so `main` calls it once before pinning and
/// every later caller sees the host's parallelism, not the pinned 1.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Fixed work the harness times between slices to read how fast the host
/// is running *at that moment*.
///
/// The hosts this benchmark runs on share their cores: a co-tenant on the
/// SMT sibling slows the pinned CPU by 30–70% for seconds to minutes at a
/// time (measured: the same single-threaded study iteration reads 140 ms
/// in a quiet minute and 260 ms in a busy one, and whole runs land in one
/// or the other). No statistic over one run's slices can remove that, so
/// every timed slice is bracketed by two readings of this reference and
/// reported divided by the slowdown they show. The reference runs none of
/// the repository's code — registers and a loopback socket of its own, no
/// heap.
///
/// It does share its CPU with the program's threads, which stay alive
/// between slices. Whatever they run during a reading (a deferred table
/// build, a checkpoint still in progress, a busy-polling worker) would
/// lengthen the reading, read as a slow host and be credited to the
/// program as a gain. So each kernel is timed net of that: the CPU time
/// every other thread of the process used while it ran is subtracted from
/// its wall time (on one CPU they can only have run *instead* of it) and
/// kept as [`Reading::foreign_share`]. What the subtraction cannot see —
/// their context switches and cache misses — is why a slice with more than
/// [`CONTENDED_SHARE`] of foreign time in its readings is counted as
/// contended and `compare` refuses to resolve a metric made of those.
///
/// Two kernels, because two resources get slow independently: `compute`
/// (eight independent multiply-rotate chains, the high-IPC arithmetic a
/// busy sibling thread slows most) and `socket` (one-byte round trips to
/// an echo thread on the same CPU: syscalls, loopback TCP and two context
/// switches, what a served request is mostly made of). Which blend of the
/// two a workload slows down with was fitted once on this code; a change
/// that shifts the mix is normalised with a stale blend, which is the
/// second reason `compare` also compares the raw clock readings and calls a
/// pair `unresolved` when the two verdicts disagree.
#[derive(Debug)]
pub struct Reference {
    stream: TcpStream,
    echo: Option<std::thread::JoinHandle<()>>,
    /// The threads a reading is made of: the caller's and the echo
    /// thread's. Every other thread of the process is foreign to it.
    own_threads: Vec<u64>,
}

/// One reading of the reference: seconds each kernel took, net of the CPU
/// time other threads of the process took from it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    pub compute_s: f64,
    pub socket_s: f64,
    /// CPU seconds other threads of the process ran during the reading
    /// (already subtracted from the two times above).
    pub foreign_s: f64,
}

/// A reading during which the program's own threads ran for more than
/// this share of the time is contended: idle servers wake for microseconds
/// per poll timeout (under 0.5% of a reading), so more than this means
/// work was left running between slices.
pub const CONTENDED_SHARE: f64 = 0.02;

const COMPUTE_ITERATIONS: u64 = 750_000;
const SOCKET_ROUND_TRIPS: usize = 300;
/// What the kernels read on the reference host (2 vCPUs of a shared
/// x86-64 server, 2026) in a quiet minute. They only fix the scale:
/// normalised times read as "seconds on that host when nobody else is on
/// it".
const COMPUTE_QUIET_S: f64 = 2.05e-3;
const SOCKET_QUIET_S: f64 = 2.05e-3;

impl Reference {
    pub fn start() -> Reference {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind reference listener");
        let addr = listener.local_addr().expect("reference listener address");
        let (echo_id, echo_id_here) = std::sync::mpsc::channel();
        let echo = std::thread::Builder::new()
            .name("bench-reference".to_string())
            .spawn(move || {
                let _ = echo_id.send(this_thread_id());
                let (mut peer, _) = listener.accept().expect("accept reference peer");
                peer.set_nodelay(true).expect("reference nodelay");
                let mut byte = [0u8; 1];
                while peer.read_exact(&mut byte).is_ok() {
                    if peer.write_all(&byte).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn reference thread");
        let stream = TcpStream::connect(addr).expect("connect reference");
        stream.set_nodelay(true).expect("reference nodelay");
        let echo_id = echo_id_here.recv().expect("the echo thread reports its id");
        Reference {
            stream,
            echo: Some(echo),
            own_threads: this_thread_id().into_iter().chain(echo_id).collect(),
        }
    }

    fn compute(&self) -> f64 {
        let start = Instant::now();
        let mut lanes = [std::hint::black_box(1u64), 2, 3, 4, 5, 6, 7, 8];
        for i in 0..COMPUTE_ITERATIONS {
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane = lane
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i ^ k as u64)
                    .rotate_left(13);
            }
        }
        std::hint::black_box(lanes);
        start.elapsed().as_secs_f64()
    }

    fn socket(&mut self) -> f64 {
        let start = Instant::now();
        let mut byte = [7u8; 1];
        for _ in 0..SOCKET_ROUND_TRIPS {
            self.stream.write_all(&byte).expect("reference write");
            self.stream.read_exact(&mut byte).expect("reference read");
        }
        start.elapsed().as_secs_f64()
    }

    /// One reading, from the thread that started the reference.
    pub fn read(&mut self) -> Reading {
        let foreign = |own: &[u64]| threads_run_ns(own) as f64 / 1e9;
        let before = foreign(&self.own_threads);
        let compute_wall = self.compute();
        let between = foreign(&self.own_threads);
        let socket_wall = self.socket();
        let after = foreign(&self.own_threads);
        Reading::net(
            (compute_wall, between - before),
            (socket_wall, after - between),
        )
    }

    /// Time `work` on `clock` between two readings: one slice.
    pub fn time<R>(&mut self, clock: Clock, work: impl FnOnce() -> R) -> (R, Sample) {
        let before = self.read();
        let (result, raw) = match clock {
            Clock::Wall => {
                let start = Instant::now();
                let result = work();
                (result, start.elapsed().as_secs_f64())
            }
            Clock::Cpu => {
                let start = process_cpu_s();
                let result = work();
                (result, process_cpu_s() - start)
            }
        };
        let host = before.mean(&self.read());
        (result, Sample { raw, host })
    }

    /// Median of several readings: the probe taken at the start and the
    /// end of a run.
    pub fn probe(&mut self) -> Reading {
        let readings: Vec<Reading> = (0..5).map(|_| self.read()).collect();
        let median = |pick: fn(&Reading) -> f64| {
            crate::stats::median(&readings.iter().map(pick).collect::<Vec<f64>>())
        };
        Reading {
            compute_s: median(|r| r.compute_s),
            socket_s: median(|r| r.socket_s),
            foreign_s: median(|r| r.foreign_s),
        }
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the stream ends the echo loop; the thread is joined so
        // the benchmark leaves nothing running.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

impl Reading {
    /// A reading from each kernel's (wall seconds, CPU seconds other
    /// threads of the process ran meanwhile). Pinned to one CPU the others
    /// can only have run instead of the kernel, so its own time is the
    /// difference; the floor keeps a reading positive where the process
    /// could not be pinned and the others ran beside it.
    pub fn net(compute: (f64, f64), socket: (f64, f64)) -> Reading {
        let own = |(wall, foreign): (f64, f64)| (wall - foreign).max(wall * 0.1);
        Reading {
            compute_s: own(compute),
            socket_s: own(socket),
            foreign_s: compute.1 + socket.1,
        }
    }

    /// Share of the reading's duration other threads of the process ran.
    pub fn foreign_share(&self) -> f64 {
        self.foreign_s / (self.compute_s + self.socket_s + self.foreign_s)
    }

    /// How much slower than the quiet reference host this reading says
    /// the host is, for work that is `compute_share` arithmetic and the
    /// rest socket path (1.0 = as fast as the reference).
    pub fn slowdown(&self, compute_share: f64) -> f64 {
        compute_share * self.compute_s / COMPUTE_QUIET_S
            + (1.0 - compute_share) * self.socket_s / SOCKET_QUIET_S
    }

    /// The mean of two readings (the ones before and after a slice).
    pub fn mean(&self, other: &Reading) -> Reading {
        Reading {
            compute_s: (self.compute_s + other.compute_s) / 2.0,
            socket_s: (self.socket_s + other.socket_s) / 2.0,
            foreign_s: (self.foreign_s + other.foreign_s) / 2.0,
        }
    }

    /// ns per step of the compute kernel (`host.spin_ns`).
    pub fn spin_ns(&self) -> f64 {
        self.compute_s * 1e9 / COMPUTE_ITERATIONS as f64
    }

    /// µs per round trip of the socket kernel (`host.pingpong_us`).
    pub fn pingpong_us(&self) -> f64 {
        self.socket_s * 1e6 / SOCKET_ROUND_TRIPS as f64
    }

    /// Whether the host changed between two probes by more than 10% on
    /// either kernel — such a run is marked, not trusted.
    pub fn disturbed(&self, later: &Reading) -> bool {
        let moved = |a: f64, b: f64| (a - b).abs() / a.min(b) > 0.10;
        moved(self.compute_s, later.compute_s) || moved(self.socket_s, later.socket_s)
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The commit under test; `unknown` in a checkout that is not a git
/// repository (the driver's).
pub fn commit_hash() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn schedstat_lines_parse() {
        assert_eq!(
            parse_schedstat("516886205 8539596 35\n"),
            Some(SchedStat {
                run_ns: 516_886_205,
                wait_ns: 8_539_596,
            })
        );
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn schedstat_deltas_saturate() {
        let before = SchedStat {
            run_ns: 100,
            wait_ns: 50,
        };
        let after = SchedStat {
            run_ns: 175,
            wait_ns: 40,
        };
        assert_eq!(
            after.since(before),
            SchedStat {
                run_ns: 75,
                wait_ns: 0,
            }
        );
    }

    #[test]
    fn a_ten_percent_move_on_either_kernel_marks_the_run() {
        let calm = Reading {
            compute_s: 1.00e-3,
            socket_s: 2.0e-3,
            ..Reading::default()
        };
        let same = Reading {
            compute_s: 1.05e-3,
            socket_s: 2.1e-3,
            ..Reading::default()
        };
        let slow_cpu = Reading {
            compute_s: 1.20e-3,
            socket_s: 2.0e-3,
            ..Reading::default()
        };
        let slow_net = Reading {
            compute_s: 1.00e-3,
            socket_s: 1.7e-3,
            ..Reading::default()
        };
        assert!(!calm.disturbed(&same));
        assert!(calm.disturbed(&slow_cpu));
        assert!(calm.disturbed(&slow_net));
    }

    #[test]
    fn slowdown_blends_the_two_kernels_by_the_compute_share() {
        let reading = Reading {
            compute_s: 2.0 * COMPUTE_QUIET_S,
            socket_s: 1.5 * SOCKET_QUIET_S,
            ..Reading::default()
        };
        assert!((reading.slowdown(1.0) - 2.0).abs() < 1e-12);
        assert!((reading.slowdown(0.0) - 1.5).abs() < 1e-12);
        assert!((reading.slowdown(0.5) - 1.75).abs() < 1e-12);
        let quiet = Reading {
            compute_s: COMPUTE_QUIET_S,
            socket_s: SOCKET_QUIET_S,
            ..Reading::default()
        };
        assert!((reading.mean(&quiet).slowdown(1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_reading_is_net_of_what_other_threads_ran_meanwhile() {
        // 2 ms kernels; another thread took 1 ms out of the compute one.
        let reading = Reading::net((3e-3, 1e-3), (2e-3, 0.0));
        assert!((reading.compute_s - 2e-3).abs() < 1e-12);
        assert!((reading.socket_s - 2e-3).abs() < 1e-12);
        assert!((reading.foreign_s - 1e-3).abs() < 1e-12);
        assert!((reading.foreign_share() - 0.2).abs() < 1e-12);
        assert!(reading.foreign_share() > CONTENDED_SHARE);
        // The slowdown it reports is the one an idle program would have
        // shown: busy threads are not read as a slow host.
        let idle = Reading::net((2e-3, 0.0), (2e-3, 0.0));
        assert_eq!(reading.slowdown(0.5), idle.slowdown(0.5));
        assert_eq!(idle.foreign_share(), 0.0);
        // Unpinned, the others ran beside the kernel: the floor holds.
        assert!(Reading::net((2e-3, 5e-3), (2e-3, 0.0)).compute_s > 0.0);
    }

    #[test]
    fn the_reference_reads_positive_times_and_stops_its_thread() {
        let mut reference = Reference::start();
        let reading = reference.read();
        assert!(reading.compute_s > 0.0 && reading.socket_s > 0.0);
        assert!(reading.spin_ns() > 0.0 && reading.pingpong_us() > 0.0);
        assert_eq!(reference.own_threads.len(), 2);
        drop(reference);
    }

    #[test]
    fn other_threads_are_counted_and_own_threads_are_not() {
        let me = this_thread_id().expect("/proc names the calling thread");
        let (ready, wait) = std::sync::mpsc::channel();
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let busy = std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed().as_millis() < 20 {
                std::hint::black_box(start);
            }
            ready.send(this_thread_id()).expect("report id");
            let _ = hold.recv();
        });
        let busy_id = wait.recv().expect("busy thread id").expect("thread id");
        // The spinner is parked now, so its CPU time is final: counted
        // unless it is named as one of the reading's own threads.
        let with = threads_run_ns(&[me]);
        let without = threads_run_ns(&[me, busy_id]);
        assert!(with >= without + 10_000_000, "{with} vs {without}");
        release.send(()).expect("release");
        busy.join().expect("busy thread");
    }
}
