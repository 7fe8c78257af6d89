//! The run shape every timed workload shares: a wall-clock schedule of
//! phases, one sample lane per load thread, and the reduction of lanes
//! to the end-to-end numbers.
//!
//! A run is set-up (repeated, median reported), a warm-up that is
//! thrown away, then timed segments against the same warm state. Load
//! threads never talk to each other about time: each reads the clock
//! once per operation and asks the shared [`Schedule`] which phase
//! that instant falls in.

use std::time::{Duration, Instant};

use sitm_serve::percentile;

use crate::span::SpanBuf;
use crate::spec::MetricSet;
use crate::stats::{median, tail_percentile};

/// Discarded at the start of every run: the first second or so of a
/// process runs about twice as fast as its steady state.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Timed segments of an untraced run; a metric is the median of its
/// per-segment values.
pub const SEGMENTS: usize = 4;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Spans one load thread may record in a traced segment.
pub const SPAN_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Discarded.
    Warm,
    /// Measured, spans off.
    Timed,
    /// Measured with spans on; feeds per-layer numbers only.
    Traced,
}

/// Consecutive phases on the wall clock, starting at `origin`.
#[derive(Debug, Clone)]
pub struct Schedule {
    origin: Instant,
    /// `(end offset from origin, kind)`, ascending.
    phases: Vec<(Duration, PhaseKind)>,
}

impl Schedule {
    fn build(parts: &[(Duration, PhaseKind)]) -> Schedule {
        let mut end = Duration::ZERO;
        let phases = parts
            .iter()
            .map(|&(len, kind)| {
                end += len;
                (end, kind)
            })
            .collect();
        Schedule {
            // Leaves load threads time to reach their loops.
            origin: Instant::now() + Duration::from_millis(20),
            phases,
        }
    }

    /// Warm-up, then [`SEGMENTS`] timed segments sharing `seconds`.
    pub fn untraced(seconds: f64) -> Schedule {
        let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
        let mut parts = vec![(WARMUP, PhaseKind::Warm)];
        parts.extend([(segment, PhaseKind::Timed); SEGMENTS]);
        Schedule::build(&parts)
    }

    /// Warm-up, one segment's worth of untraced time cut in
    /// [`SEGMENTS`] (the reference the traced segment is compared
    /// with), then one traced segment.
    pub fn traced(seconds: f64) -> Schedule {
        let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
        let mut parts = vec![(WARMUP, PhaseKind::Warm)];
        parts.extend([(segment / SEGMENTS as u32, PhaseKind::Timed); SEGMENTS]);
        parts.push((segment, PhaseKind::Traced));
        Schedule::build(&parts)
    }

    /// One short timed phase and nothing else (the certified pass).
    pub fn brief(len: Duration) -> Schedule {
        Schedule::build(&[(len, PhaseKind::Timed)])
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn end(&self) -> Instant {
        self.origin + self.phases.last().expect("a schedule has phases").0
    }

    /// When the warm-up (if any) is over.
    pub fn measured_from(&self) -> Instant {
        let warm = self
            .phases
            .iter()
            .take_while(|(_, kind)| *kind == PhaseKind::Warm)
            .last()
            .map_or(Duration::ZERO, |(end, _)| *end);
        self.origin + warm
    }

    /// The phase `at` falls in, or `None` once the schedule is over.
    /// Instants before the origin belong to the first phase.
    pub fn phase_at(&self, at: Instant) -> Option<usize> {
        let offset = at.saturating_duration_since(self.origin);
        self.phases.iter().position(|(end, _)| offset < *end)
    }

    pub fn kind(&self, phase: usize) -> PhaseKind {
        self.phases[phase].1
    }

    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    fn len_s(&self, phase: usize) -> f64 {
        let start = if phase == 0 {
            Duration::ZERO
        } else {
            self.phases[phase - 1].0
        };
        (self.phases[phase].0 - start).as_secs_f64()
    }

    /// Blocks the calling load thread until the schedule starts.
    pub fn wait_for_start(&self) {
        std::thread::sleep(self.origin.saturating_duration_since(Instant::now()));
    }
}

/// What one load thread saw in one phase.
#[derive(Debug, Default)]
pub struct PhaseData {
    /// One latency sample per operation, or per batch when a clock
    /// read per operation would distort what is measured; saturates
    /// at `u32::MAX` ns (4.3 s).
    pub lat_ns: Vec<u32>,
    /// Operations completed.
    pub done: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// One load thread's samples, spans and stream digest.
#[derive(Debug)]
pub struct Lane {
    pub phases: Vec<PhaseData>,
    pub spans: SpanBuf,
    /// Interactive commits the server refused and the client retried.
    pub retries: u64,
    pub digest: Option<u64>,
    /// Why the lane stopped early, if it did.
    pub error: Option<String>,
}

impl Lane {
    /// `samples_per_s` sizes the sample vectors. They are allocated
    /// and touched here, before anything is measured, so that they are
    /// a constant in `peak_rss_mb` and do not grow with the very
    /// throughput a change may improve.
    pub fn new(schedule: &Schedule, samples_per_s: f64) -> Lane {
        let phases = (0..schedule.phase_count())
            .map(|phase| {
                let reserve = match schedule.kind(phase) {
                    PhaseKind::Warm => 0,
                    _ => (schedule.len_s(phase) * samples_per_s) as usize,
                };
                let mut lat_ns = vec![0; reserve];
                lat_ns.clear();
                PhaseData {
                    lat_ns,
                    ..PhaseData::default()
                }
            })
            .collect();
        Lane {
            phases,
            spans: SpanBuf::new(schedule.origin(), SPAN_CAPACITY),
            retries: 0,
            digest: None,
            error: None,
        }
    }

    /// Counts `ops` operations issued in `phase`; warm-up is not kept.
    pub fn attempt(&mut self, schedule: &Schedule, phase: usize, ops: u64) {
        if schedule.kind(phase) != PhaseKind::Warm {
            self.phases[phase].attempted += ops;
        }
    }

    /// Records one latency sample standing for `ops` completed
    /// operations issued in `phase`.
    pub fn complete(&mut self, schedule: &Schedule, phase: usize, lat: Duration, ops: u64) {
        if schedule.kind(phase) != PhaseKind::Warm {
            let data = &mut self.phases[phase];
            data.lat_ns
                .push(u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX));
            data.done += ops;
        }
    }

    pub fn fail(&mut self, schedule: &Schedule, phase: usize, why: String) {
        if schedule.kind(phase) != PhaseKind::Warm {
            self.phases[phase].failed += 1;
        }
        self.error.get_or_insert(why);
    }
}

/// Throughput and latency of one phase over a set of lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// The reduction of a finished run's lanes.
#[derive(Debug)]
pub struct Summary {
    pub timed: Vec<PhaseSummary>,
    pub traced: Option<PhaseSummary>,
    /// p99.9 over every timed sample, when at least ten samples lie
    /// beyond it.
    pub p999_us: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
}

fn phase_summary(
    schedule: &Schedule,
    phase: usize,
    tput_lanes: &[&Lane],
    lat_lanes: &[&Lane],
) -> (PhaseSummary, Vec<u64>) {
    let done: u64 = tput_lanes.iter().map(|l| l.phases[phase].done).sum();
    let mut lat: Vec<u64> = lat_lanes
        .iter()
        .flat_map(|l| l.phases[phase].lat_ns.iter().map(|&ns| u64::from(ns)))
        .collect();
    lat.sort_unstable();
    let summary = PhaseSummary {
        ops_per_s: done as f64 / schedule.len_s(phase),
        p50_us: percentile(&lat, 50.0) as f64 / 1e3,
        p95_us: percentile(&lat, 95.0) as f64 / 1e3,
        p99_us: percentile(&lat, 99.0) as f64 / 1e3,
        samples: lat.len(),
    };
    (summary, lat)
}

impl Summary {
    /// Reduces a run. Throughput counts the operations of
    /// `tput_lanes`, latency the samples of `lat_lanes` (they differ
    /// when one thread is the writer and another the reader measured).
    pub fn of(schedule: &Schedule, tput_lanes: &[&Lane], lat_lanes: &[&Lane]) -> Summary {
        let mut timed = Vec::new();
        let mut traced = None;
        let mut all_timed = Vec::new();
        for phase in 0..schedule.phase_count() {
            match schedule.kind(phase) {
                PhaseKind::Warm => {}
                PhaseKind::Timed => {
                    let (summary, lat) = phase_summary(schedule, phase, tput_lanes, lat_lanes);
                    timed.push(summary);
                    all_timed.extend(lat);
                }
                PhaseKind::Traced => {
                    traced = Some(phase_summary(schedule, phase, tput_lanes, lat_lanes).0);
                }
            }
        }
        all_timed.sort_unstable();
        let p999_us = tail_percentile(all_timed.len())
            .filter(|&p| p >= 99.9)
            .map(|_| percentile(&all_timed, 99.9) as f64 / 1e3);
        let mut lanes: Vec<&Lane> = tput_lanes.to_vec();
        for lane in lat_lanes {
            if !lanes.iter().any(|l| std::ptr::eq(*l, *lane)) {
                lanes.push(lane);
            }
        }
        let all_phases = || lanes.iter().flat_map(|l| l.phases.iter());
        Summary {
            timed,
            traced,
            p999_us,
            attempted: all_phases().map(|p| p.attempted).sum(),
            failed: all_phases().map(|p| p.failed).sum(),
        }
    }

    fn median_of(&self, pick: impl Fn(&PhaseSummary) -> f64) -> f64 {
        median(&self.timed.iter().map(pick).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&self) -> f64 {
        self.median_of(|p| p.ops_per_s)
    }

    pub fn p50_us(&self) -> f64 {
        self.median_of(|p| p.p50_us)
    }

    pub fn p95_us(&self) -> f64 {
        self.median_of(|p| p.p95_us)
    }

    pub fn p99_us(&self) -> f64 {
        self.median_of(|p| p.p99_us)
    }

    /// One line per run for the log: what each segment measured, and
    /// over how many samples its percentiles are.
    pub fn describe(&self) -> String {
        let segments: Vec<String> = self
            .timed
            .iter()
            .chain(&self.traced)
            .map(|p| {
                format!(
                    "{:.0}/s p50 {:.1}us p95 {:.1}us p99 {:.1}us n={}",
                    p.ops_per_s, p.p50_us, p.p95_us, p.p99_us, p.samples
                )
            })
            .collect();
        segments.join(" | ")
    }

    /// `(max - min) / median` of the timed segments' throughput, in
    /// percent.
    pub fn seg_spread_pct(&self) -> f64 {
        let rates: Vec<f64> = self.timed.iter().map(|p| p.ops_per_s).collect();
        let max = rates.iter().copied().fold(f64::MIN, f64::max);
        let min = rates.iter().copied().fold(f64::MAX, f64::min);
        100.0 * (max - min) / median(&rates)
    }

    /// How much slower the traced segment ran than the untraced ones,
    /// in percent of the untraced throughput.
    pub fn trace_overhead_pct(&self) -> f64 {
        let untraced = self.ops_per_s();
        self.traced
            .map_or(0.0, |t| 100.0 * (untraced - t.ops_per_s) / untraced)
    }

    /// The end-to-end metrics every timed workload reports the same
    /// way.
    pub fn fill_end_to_end(&self, out: &mut MetricSet, setup_s: f64) {
        out.set("ops_per_s", self.ops_per_s());
        out.set("op_p50_us", self.p50_us());
        out.set("op_p95_us", self.p95_us());
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss_mb());
    }

    /// The per-layer metrics that come from the lanes themselves.
    pub fn fill_client_layer(&self, out: &mut MetricSet) {
        out.set("trace_overhead_pct", self.trace_overhead_pct());
        out.set("client.seg_spread_pct", self.seg_spread_pct());
        out.set("client.op_p99_us", self.p99_us());
        out.set("client.op_p999_us", self.p999_us.unwrap_or(0.0));
    }
}

/// Runs `setup` [`SETUPS`] times, hands all but the last result to
/// `discard`, and returns the last with the median set-up time.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS is at least one"), median(&times)))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_maps_instants_to_phases() {
        let s = Schedule::untraced(8.0);
        assert_eq!(s.phase_count(), 1 + SEGMENTS);
        let at = |secs: f64| s.phase_at(s.origin() + Duration::from_secs_f64(secs));
        assert_eq!(s.phase_at(s.origin() - Duration::from_millis(5)), Some(0));
        assert_eq!(at(1.999), Some(0));
        assert_eq!(at(2.0), Some(1));
        assert_eq!(at(9.999), Some(4));
        assert_eq!(at(10.0), None);
        assert_eq!(s.kind(0), PhaseKind::Warm);
        assert_eq!(s.kind(4), PhaseKind::Timed);
        assert_eq!(s.measured_from(), s.origin() + WARMUP);
        assert_eq!(s.end(), s.origin() + Duration::from_secs(10));
    }

    #[test]
    fn traced_schedule_ends_with_one_traced_segment() {
        let s = Schedule::traced(8.0);
        assert_eq!(s.phase_count(), 2 + SEGMENTS);
        assert_eq!(s.kind(SEGMENTS + 1), PhaseKind::Traced);
        assert!((s.len_s(1) - 0.5).abs() < 1e-9 && (s.len_s(SEGMENTS + 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_takes_the_median_of_segments_and_drops_warm_up() {
        let s = Schedule::untraced(4.0);
        let mut lane = Lane::new(&s, 10.0);
        let us = Duration::from_micros;
        lane.attempt(&s, 0, 1);
        lane.complete(&s, 0, us(999), 1);
        for (phase, lat, ops) in [(1, 10, 100), (2, 20, 300), (3, 30, 200), (4, 90, 400)] {
            lane.attempt(&s, phase, ops);
            lane.complete(&s, phase, us(lat), ops);
        }
        lane.fail(&s, 0, "in warm-up".into());
        lane.fail(&s, 2, "timed".into());
        let sum = Summary::of(&s, &[&lane], &[&lane]);
        assert_eq!(sum.timed.len(), SEGMENTS);
        assert_eq!(sum.ops_per_s(), 250.0);
        assert_eq!(sum.p50_us(), 25.0);
        assert_eq!((sum.attempted, sum.failed), (1000, 1));
        assert_eq!(sum.p999_us, None);
        assert_eq!(sum.describe().matches("n=1").count(), SEGMENTS);
        assert_eq!(sum.seg_spread_pct(), 100.0 * 300.0 / 250.0);
        assert_eq!(lane.error.as_deref(), Some("in warm-up"));
    }

    #[test]
    fn repeated_setup_keeps_the_last_and_discards_the_rest() {
        let mut built = 0;
        let mut discarded = Vec::new();
        let (kept, secs) = repeated_setup(
            || {
                built += 1;
                Ok(built)
            },
            |n| discarded.push(n),
        )
        .unwrap();
        assert_eq!(kept, SETUPS);
        assert_eq!(discarded, (1..SETUPS).collect::<Vec<_>>());
        assert!(secs >= 0.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
