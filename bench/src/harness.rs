//! Measurement plumbing shared by every workload: order statistics,
//! `/proc` readers, the open-loop pacer, in-memory spans, and the phase
//! runner that turns fixed-content rounds into the end-to-end metrics.
//!
//! Noise discipline lives here so no workload can skip it: a rate is the
//! median over whole rounds (never total/elapsed, never the best round), a
//! phase is sized by its time box alone (constants, no calibration), and a
//! run whose throughput phase ends with fewer than [`MIN_ROUNDS`] rounds
//! or whose latency sample is smaller than [`MIN_LATENCY_SAMPLES`] fails.

use std::time::{Duration, Instant};

/// A throughput phase with fewer whole rounds than this fails the run.
pub const MIN_ROUNDS: usize = 20;
/// A latency percentile from fewer samples than this fails the run.
pub const MIN_LATENCY_SAMPLES: usize = 500;
/// The pacer sleeps to within this of a due time, then spins.
pub const PACER_SPIN: Duration = Duration::from_micros(100);

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has already checked its
/// sample-count floor.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// sample at or below it (`q` in `(0, 1]`). The benchmark keeps its own
/// copy instead of calling `simio::stats::quantile`: a change to the
/// measured crates must not be able to move the instrument.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over a byte stream — the fingerprint for generated inputs and
/// plan outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the hash.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

/// On-CPU microseconds from a `schedstat` file (first field,
/// nanoseconds). Finer than the 10 ms ticks of `/proc/*/stat`, which
/// matters for windows in which the process is mostly waiting.
fn schedstat_cpu_us(path: &std::path::Path) -> f64 {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let ns: f64 = text
        .split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds");
    ns / 1e3
}

/// CPU used so far by the process's live threads, microseconds. Time of
/// threads that already exited is not included, so take differences only
/// across spans in which no thread ends.
pub fn process_cpu_us() -> f64 {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .map(|entry| schedstat_cpu_us(&entry.expect("task entry").path().join("schedstat")))
        .sum()
}

/// CPU used so far by the calling thread, microseconds.
pub fn thread_cpu_us() -> f64 {
    schedstat_cpu_us(std::path::Path::new("/proc/thread-self/schedstat"))
}

/// One `kB` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = text
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"));
    let kb: f64 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("status value in kB");
    kb / 1024.0
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// The host's 1-minute load average.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_ascii_whitespace().next()?.parse().ok())
        .expect("read /proc/loadavg")
}

// ---------------------------------------------------------------------
// Open-loop pacing
// ---------------------------------------------------------------------

/// A fixed-rate schedule. Ops are *due* at `start + k·period`; the pacer
/// sleeps to within [`PACER_SPIN`] of each due time and spins the rest,
/// and never skips a slot — when the previous op ran long the next one
/// starts late, its latency is still counted from its due time, and the
/// lateness is recorded in `lag_us`.
pub struct Pacer {
    period: Duration,
    next_due: Instant,
    /// How late each op actually started, microseconds.
    pub lag_us: Vec<f64>,
}

impl Pacer {
    /// A schedule of one op every `period`, the first due one period
    /// from now.
    pub fn new(period: Duration) -> Pacer {
        Pacer {
            period,
            next_due: Instant::now() + period,
            lag_us: Vec::new(),
        }
    }

    /// Blocks until the next slot is due and returns its due time.
    pub fn wait(&mut self) -> Instant {
        let due = self.next_due;
        self.next_due += self.period;
        let now = Instant::now();
        if let Some(ahead) = due.checked_duration_since(now) {
            if ahead > PACER_SPIN {
                std::thread::sleep(ahead - PACER_SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        let started = Instant::now();
        self.lag_us
            .push(started.saturating_duration_since(due).as_secs_f64() * 1e6);
        due
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span wraps (`core.plan`, `wire.read`, …).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// The op the span belongs to (one id per op).
    pub request: u64,
}

/// Handle returned by [`Tracer::enter`]; `u32::MAX` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// In-memory span recorder, used from the load-generating thread only.
/// Off, `enter`/`exit` are one predictable branch each; on, they push to
/// a preallocated vector. Spans are written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Turns recording on or off (between ops only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle tracing between ops");
        if on && self.spans.capacity() == 0 {
            self.spans.reserve(1 << 20);
        }
        self.on = on;
    }

    /// Starts the next op: spans entered from now on carry a fresh id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(u32::MAX);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request: self.request,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the span opened last.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == u32::MAX {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop().expect("span stack underflow");
        debug_assert_eq!(top, id.0, "spans close in LIFO order");
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time, sorted by name.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, SpanSummary> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_insert(SpanSummary {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        by_name.into_values().collect()
    }

    /// Writes every span as one TSV line
    /// (`index name start_ns end_ns parent request`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

// ---------------------------------------------------------------------
// Rounds and phases
// ---------------------------------------------------------------------

/// What one round reports back to the phase runner.
#[derive(Default)]
pub struct RoundOut {
    /// Work units completed (what `work_per_s` counts).
    pub work: u64,
    /// Timed calls made.
    pub ops: u64,
    /// Ops that failed: a typed refusal, a reply or result that failed
    /// verification.
    pub failed: u64,
    /// One latency sample per op (or per reply), microseconds.
    pub op_us: Vec<f64>,
    /// The schedule of an open-loop round; `None` in a closed loop.
    pub pacer: Option<Pacer>,
}

impl RoundOut {
    /// The instant the next op's latency counts from: now in a closed
    /// loop; in an open loop its due time, once that has come.
    #[inline]
    pub fn start(&mut self) -> Instant {
        match self.pacer.as_mut() {
            Some(pacer) => pacer.wait(),
            None => Instant::now(),
        }
    }

    /// Times `f` as one op worth `work` units; `f` returns whether the
    /// op's result verified.
    #[inline]
    pub fn op(&mut self, work: u64, f: impl FnOnce() -> bool) {
        let t0 = self.start();
        let ok = f();
        self.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.done(work, ok);
    }

    /// Books one finished op whose latency the caller sampled itself.
    #[inline]
    pub fn done(&mut self, work: u64, ok: bool) {
        self.ops += 1;
        self.work += work;
        self.failed += u64::from(!ok);
    }
}

/// One of the benchmark's workloads, after its set-up ran.
pub trait Workload {
    /// Untimed: fill caches, record reference outputs.
    fn warm_up(&mut self, tr: &mut Tracer);

    /// One throughput round: a fixed, seed-determined list of ops.
    fn round(&mut self, tr: &mut Tracer, out: &mut RoundOut);

    /// Untimed work between rounds (the full oracle comparison). Returns
    /// how many ops of the finished round failed it.
    fn check_round(&mut self, _tr: &mut Tracer) -> u64 {
        0
    }

    /// Send period of the open-loop latency phase; `None` for a workload
    /// whose callers wait for their result (every in-process one), which
    /// has no such phase.
    fn latency_period(&self) -> Option<Duration> {
        None
    }

    /// One round of the latency phase: `out` carries the schedule, so
    /// each [`RoundOut::start`] waits for the next due time and the op is
    /// timed from it.
    fn latency_round(&mut self, _tr: &mut Tracer, _out: &mut RoundOut) {
        unreachable!("a workload without a latency period has no latency phase");
    }

    /// `(bytes assigned to a co-located process, bytes assigned)` over
    /// every plan the workload obtained.
    fn locality(&self) -> (u64, u64);

    /// Untimed teardown; panics if the run left the system in a state
    /// the workload forbids (planner work on the hit path, …).
    fn finish(self: Box<Self>, tr: &mut Tracer);
}

/// What one finished round measured.
#[derive(Debug)]
pub struct RoundStat {
    /// Whether spans were recorded during the round.
    pub traced: bool,
    /// Work units completed.
    pub work: u64,
    /// Wall time, seconds.
    pub secs: f64,
    /// Process CPU, microseconds.
    pub cpu_us: f64,
    /// The load-generating thread's part of it, microseconds.
    pub loadgen_cpu_us: f64,
    /// Timed calls made.
    pub ops: u64,
    /// Latency samples, microseconds.
    pub op_us: Vec<f64>,
}

/// Everything a finished phase measured.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// The rounds, in the order they ran.
    pub rounds: Vec<RoundStat>,
    /// Ops that failed, in a round or in the oracle comparison after it.
    pub failed: u64,
    /// Open-loop lateness samples, microseconds (latency phases only).
    pub lag_us: Vec<f64>,
}

impl PhaseStats {
    /// Ops attempted.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Every latency sample of the phase.
    pub fn op_us(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.op_us.iter().copied())
            .collect()
    }

    /// Process CPU and the load generator's part of it, microseconds.
    pub fn cpu_us(&self) -> (f64, f64) {
        self.rounds
            .iter()
            .fold((0.0, 0.0), |(p, l), r| (p + r.cpu_us, l + r.loadgen_cpu_us))
    }

    /// Work units per second of each round, or of the rounds with
    /// `traced == which` only.
    pub fn rates(&self, which: Option<bool>) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| which.is_none_or(|t| r.traced == t))
            .map(|r| r.work as f64 / r.secs)
            .collect()
    }
}

/// Runs whole rounds until `time_box` closes: throughput rounds back to
/// back, or with `period` latency rounds on an open-loop schedule. With
/// `trace`, odd rounds record spans and even rounds do not, so the two
/// rates come from the same minute of the same process.
pub fn run_phase(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    time_box: Duration,
    trace: bool,
    period: Option<Duration>,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut pacer = period.map(Pacer::new);
    let phase_start = Instant::now();
    let mut round_no = 0u64;
    while phase_start.elapsed() < time_box {
        let traced = trace && round_no % 2 == 1;
        tr.set_on(traced);
        let mut out = RoundOut {
            pacer: pacer.take(),
            ..RoundOut::default()
        };
        let (cpu0, main0) = (process_cpu_us(), thread_cpu_us());
        let t0 = Instant::now();
        if period.is_some() {
            w.latency_round(tr, &mut out);
        } else {
            w.round(tr, &mut out);
        }
        let secs = t0.elapsed().as_secs_f64();
        pacer = out.pacer.take();
        stats.rounds.push(RoundStat {
            traced,
            work: out.work,
            secs,
            cpu_us: process_cpu_us() - cpu0,
            loadgen_cpu_us: thread_cpu_us() - main0,
            ops: out.ops,
            op_us: out.op_us,
        });
        // The oracle comparison sits outside every timed window. In a
        // latency phase it has to fit in the idle gap before the next due
        // time; `lag_us` shows when it does not.
        stats.failed += out.failed + w.check_round(tr);
        round_no += 1;
    }
    tr.set_on(false);
    if let Some(p) = pacer {
        stats.lag_us = p.lag_us;
    }
    stats
}
