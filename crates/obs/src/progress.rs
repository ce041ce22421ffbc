//! Live progress rendering from epoch-published counters.
//!
//! Workers publish cumulative `progress.*` counters into the global
//! registry (see naming conventions below); a sampler thread wakes a few
//! times per second, diffs against its previous sample, and renders one
//! status line to stderr. The hot path never blocks on, or even notices,
//! the sampler.
//!
//! Counter conventions (all under the global registry):
//! * `progress.events` — cumulative demand events processed, all workers.
//! * `progress.chunks` — cumulative trace chunks consumed/produced.
//! * `progress.shards_total` / `progress.shards_done` — gauge/counter pair
//!   of a grid's structures to walk and walked, used for the ETA
//!   extrapolation and the `shards a/b` display.
//! * `progress.total` — gauge of the `progress.events` count at which the
//!   work in flight is done, when known (a trace walk reads it from the
//!   trace's footer); the ETA falls back to it while no structure is done.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Background thread that renders a `--progress` line to stderr until
/// dropped. Construction spawns the thread; drop stops and joins it and
/// clears the line.
#[derive(Debug)]
pub struct ProgressSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Without a terminal each sample is a permanent log line, not an
/// overwrite — emit one every `NON_TTY_EVERY` ticks (every 2 s) so a
/// captured log stays readable.
const NON_TTY_EVERY: u32 = 8;

impl ProgressSampler {
    /// Start sampling the global registry, labelling the line `label`.
    pub fn start(label: &str) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let label = label.to_string();
        let handle = thread::Builder::new()
            .name("obs-progress".into())
            .spawn(move || sample_loop(&label, &stop2))
            .ok();
        Self { stop, handle }
    }
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // Clear the status line so the final report starts clean — but only
        // where there is a line to clear; in a pipe or CI log the escape
        // sequence would just be noise in the capture.
        if std::io::stderr().is_terminal() {
            eprint!("\r\x1b[2K");
        }
    }
}

fn sample_loop(label: &str, stop: &AtomicBool) {
    let tty = std::io::stderr().is_terminal();
    let start = Instant::now();
    let mut last_events = 0u64;
    let mut last_t = start;
    let mut tick = 0u32;
    while !stop.load(Ordering::Relaxed) {
        thread::sleep(SAMPLE_EVERY);
        tick += 1;
        if !tty && tick % NON_TTY_EVERY != 0 {
            continue;
        }
        let now = Instant::now();
        let line = render_line(label, start, now, &mut last_events, &mut last_t);
        if tty {
            // overwrite the status line in place
            eprint!("\r\x1b[2K{line}");
        } else {
            // append-only plain lines: no carriage returns, no escapes
            eprintln!("{line}");
        }
    }
    if let Some(line) = final_flush(tty, label, start, &mut last_events, &mut last_t) {
        eprintln!("{line}");
    }
}

/// The line flushed once when sampling stops. A run usually ends between
/// the reduced non-tty ticks, so without this the captured log's last
/// progress line can be seconds stale (old `points_done`); re-render at
/// stop time so the log always ends with the final counter state. On a
/// terminal there is nothing to flush — `Drop` clears the live line and
/// the end-of-run summary follows.
fn final_flush(
    tty: bool,
    label: &str,
    start: Instant,
    last_events: &mut u64,
    last_t: &mut Instant,
) -> Option<String> {
    if tty {
        return None;
    }
    Some(render_line(
        label,
        start,
        Instant::now(),
        last_events,
        last_t,
    ))
}

fn render_line(
    label: &str,
    start: Instant,
    now: Instant,
    last_events: &mut u64,
    last_t: &mut Instant,
) -> String {
    let reg = crate::global();
    let events = reg.counter_value("progress.events").unwrap_or(0);
    let chunks = reg.counter_value("progress.chunks").unwrap_or(0);
    let dt = now.duration_since(*last_t).as_secs_f64().max(1e-9);
    // The windowed rate is what the run is doing *right now* — good for the
    // Mev/s display, hopeless for an ETA (one slow window between samples
    // whipsaws the estimate by minutes). The ETA uses the cumulative
    // average rate instead, which converges as the run progresses.
    let rate = events.saturating_sub(*last_events) as f64 / dt;
    let avg_rate = events as f64 / now.duration_since(start).as_secs_f64().max(1e-9);
    *last_events = events;
    *last_t = now;

    let mut line = format!(
        "[{label}] {:.1}s {} events",
        now.duration_since(start).as_secs_f64(),
        human(events),
    );
    if chunks > 0 {
        line.push_str(&format!(", {} chunks", human(chunks)));
    }
    line.push_str(&format!(" | {:.1} Mev/s", rate / 1e6));

    let shards_total = reg.gauge_value("progress.shards_total").unwrap_or(0);
    let shards_done = reg.counter_value("progress.shards_done").unwrap_or(0);
    if shards_total > 0 {
        line.push_str(&format!(" | shards {shards_done}/{shards_total}"));
    }
    // ETA by extrapolating walked structures' cost over the remaining
    // ones, or from the event total when one is known (structures that
    // finish together give no partial completion to extrapolate).
    let total = reg.gauge_value("progress.total").unwrap_or(0);
    if avg_rate > 0.0 {
        if shards_done > 0 && shards_done < shards_total {
            let per_shard = events as f64 / shards_done as f64;
            let remaining = per_shard * (shards_total - shards_done) as f64;
            line.push_str(&format!(" | eta {:.0}s", remaining / avg_rate));
        } else if total > events {
            line.push_str(&format!(
                " | eta {:.0}s",
                (total - events) as f64 / avg_rate
            ));
        }
    }

    // Sweep-level state (reproduce / journaled table-figure-heatmap runs).
    let pts_done = reg.counter_value("sweep.points_done").unwrap_or(0);
    let pts_skipped = reg.counter_value("sweep.points_skipped").unwrap_or(0);
    let pts_failed = reg.counter_value("sweep.points_failed").unwrap_or(0);
    if pts_done + pts_skipped + pts_failed > 0 {
        line.push_str(&format!(" | points {pts_done} done"));
        if pts_skipped > 0 {
            line.push_str(&format!(", {pts_skipped} resumed"));
        }
        if pts_failed > 0 {
            line.push_str(&format!(", {pts_failed} failed"));
        }
    }
    line
}

fn human(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_line_reads_registry_without_panicking() {
        let _lock = crate::test_lock();
        crate::reset();
        let reg = crate::global();
        reg.counter("progress.events").add(1_234_567);
        reg.counter("progress.chunks").add(300);
        reg.gauge("progress.shards_total").set(4);
        reg.counter("progress.shards_done").inc();
        let t0 = Instant::now();
        let mut last_events = 0;
        let mut last_t = t0;
        let line = render_line("replay", t0, Instant::now(), &mut last_events, &mut last_t);
        assert!(line.contains("events"), "{line}");
        assert!(line.contains("shards 1/4"), "{line}");
        crate::reset();
    }

    #[test]
    fn eta_uses_cumulative_rate_not_the_last_window() {
        let _lock = crate::test_lock();
        crate::reset();
        let reg = crate::global();
        // 10M events over 10s: the average rate is a steady 1 Mev/s
        reg.counter("progress.events").add(10_000_000);
        reg.gauge("progress.total").set(20_000_000);
        let now = Instant::now();
        let start = now - Duration::from_secs(10);
        // ...but the last 250ms window was completely stalled
        let mut last_events = 10_000_000;
        let mut last_t = now - Duration::from_millis(250);
        let line = render_line("reproduce", start, now, &mut last_events, &mut last_t);
        // the instantaneous display reflects the stall
        assert!(line.contains("| 0.0 Mev/s"), "{line}");
        // the ETA does not whipsaw to infinity with it: 10M left at 1 Mev/s
        assert!(line.contains("eta 10s"), "{line}");

        // structures walked together finish together: until one is done
        // the known total still gives the ETA
        reg.gauge("progress.shards_total").set(3);
        reg.counter("progress.shards_done");
        let line = render_line("replay", start, now, &mut last_events, &mut last_t);
        assert!(line.contains("shards 0/3 | eta 10s"), "{line}");
        crate::reset();
    }

    #[test]
    fn render_line_shows_sweep_point_counters() {
        let _lock = crate::test_lock();
        crate::reset();
        let reg = crate::global();
        reg.counter("sweep.points_done").add(12);
        reg.counter("sweep.points_skipped").add(30);
        reg.counter("sweep.points_failed").add(1);
        let t0 = Instant::now();
        let mut last_events = 0;
        let mut last_t = t0;
        let line = render_line(
            "reproduce",
            t0,
            Instant::now(),
            &mut last_events,
            &mut last_t,
        );
        assert!(
            line.contains("points 12 done, 30 resumed, 1 failed"),
            "{line}"
        );
        crate::reset();
    }

    #[test]
    fn final_flush_renders_fresh_counters_not_the_last_sample() {
        let _lock = crate::test_lock();
        crate::reset();
        let reg = crate::global();
        reg.counter("sweep.points_done").add(3);
        let t0 = Instant::now();
        let mut last_events = 0;
        let mut last_t = t0;
        // A mid-run sample sees 3 points; the run then finishes two more
        // before the sampler stops mid-interval.
        let line = render_line(
            "reproduce",
            t0,
            Instant::now(),
            &mut last_events,
            &mut last_t,
        );
        assert!(line.contains("points 3 done"), "{line}");
        reg.counter("sweep.points_done").add(2);
        let flushed = final_flush(false, "reproduce", t0, &mut last_events, &mut last_t)
            .expect("non-tty stop must flush a final line");
        assert!(flushed.contains("points 5 done"), "{flushed}");
        // On a terminal the live line is cleared instead — nothing to flush.
        assert!(final_flush(true, "reproduce", t0, &mut last_events, &mut last_t).is_none());
        crate::reset();
    }

    #[test]
    fn sampler_starts_and_stops() {
        let _lock = crate::test_lock();
        let sampler = ProgressSampler::start("test");
        thread::sleep(Duration::from_millis(20));
        drop(sampler);
    }
}
