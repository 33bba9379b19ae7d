//! The daemon's threads: periodic housekeeping ticks, and supervised
//! pollers that restart crashed source loops with bounded exponential
//! backoff and trip a per-source circuit breaker when the crashes keep
//! coming.
//!
//! A ticker ([`spawn_ticker`]) swallows a panicking tick and keeps
//! ticking — the right default for periodic housekeeping such as the
//! checkpointer, but wrong for a poller whose *state* (an open tail
//! reader) may be poisoned by the crash. A supervised poller instead
//! runs as a sequence of *incarnations*: each incarnation rebuilds its
//! world from the shared [`SourceState`](crate::fold::SourceState)
//! (including the tail-resume offset, the same data a durable
//! checkpoint persists) and loops until the daemon stops or something
//! goes wrong. A crash — caught panic or fatal I/O error — ends the
//! incarnation; the supervisor logs it, backs off exponentially, and
//! starts the next one. Too many crashes inside a sliding window trip
//! the breaker: the source is parked with a visible alert and the
//! telemetry gauge pins at 2, bounding the blast radius of an input
//! that crashes every poll.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use typefuse_obs::{EventLog, Level, Recorder, TelemetryCell};

/// Breaker gauge values for `typefuse_source_breaker`.
pub(crate) const BREAKER_OK: u64 = 0;
pub(crate) const BREAKER_BACKOFF: u64 = 1;
pub(crate) const BREAKER_TRIPPED: u64 = 2;

/// Restart and breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Crashes within [`SupervisorPolicy::window`] that trip the
    /// breaker.
    pub max_failures: u32,
    /// Sliding failure window; an incarnation that outlives it also
    /// resets the backoff exponent.
    pub window: Duration,
    /// First restart delay; doubles per consecutive crash.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_failures: 5,
            window: Duration::from_secs(60),
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// How an incarnation ended.
pub(crate) enum Exit {
    /// Clean: the daemon is stopping, or the source parked itself
    /// (error policy). No restart.
    Stop,
    /// The incarnation hit a fatal error; the supervisor decides
    /// whether to restart.
    Crash(String),
}

/// Telemetry cells the supervisor maintains for one source.
pub(crate) struct SupervisorCells {
    /// `typefuse_source_breaker`: 0 ok, 1 backing off, 2 tripped.
    pub(crate) breaker: TelemetryCell,
    /// `typefuse_source_restarts`: restarts of this source.
    pub(crate) restarts: TelemetryCell,
    /// `typefuse_supervisor_restarts_total`: shared across sources.
    pub(crate) total_restarts: TelemetryCell,
}

/// A handle to one daemon thread (a ticker or a supervised poller) with
/// its own stop flag: stopping it never stops its siblings, and dropping
/// it stops and joins it.
pub(crate) struct Supervised {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Supervised {
    /// Stop and wait for the thread (a poller's current incarnation
    /// included), as dropping the handle does.
    pub(crate) fn join(self) {
        drop(self);
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Run `incarnation` under supervision on a dedicated thread.
///
/// The closure receives the task's own stop flag and must return
/// promptly once it (or the shared `stop` it captured) is set. `on_trip`
/// runs once if the breaker trips — the daemon parks the source there.
#[allow(clippy::too_many_arguments)] // one call site; a builder would be noise
pub(crate) fn spawn_supervised(
    name: &str,
    policy: SupervisorPolicy,
    stop: Arc<AtomicBool>,
    recorder: Recorder,
    events: EventLog,
    cells: SupervisorCells,
    on_trip: impl FnOnce(String) + Send + 'static,
    mut incarnation: impl FnMut(&AtomicBool) -> Exit + Send + 'static,
) -> Supervised {
    let own_stop = Arc::new(AtomicBool::new(false));
    let thread_own = Arc::clone(&own_stop);
    let name = name.to_string();
    let handle = std::thread::Builder::new()
        .name(format!("sup-{name}"))
        .spawn(move || {
            let stopped = || stop.load(Ordering::Acquire) || thread_own.load(Ordering::Acquire);
            let mut failures: VecDeque<Instant> = VecDeque::new();
            let mut streak = 0u32;
            let mut on_trip = Some(on_trip);
            cells.breaker.set(BREAKER_OK);
            while !stopped() {
                let started = Instant::now();
                let outcome =
                    std::panic::catch_unwind(AssertUnwindSafe(|| incarnation(&thread_own)));
                if stopped() {
                    break;
                }
                let reason = match outcome {
                    Ok(Exit::Stop) => break,
                    Ok(Exit::Crash(reason)) => reason,
                    // `&*` so the *contents* are downcast, not the Box.
                    Err(payload) => format!("panic: {}", panic_message(&*payload)),
                };
                recorder.add("serve.poller_crashes", 1);
                let now = Instant::now();
                failures.push_back(now);
                while failures
                    .front()
                    .is_some_and(|at| now.duration_since(*at) > policy.window)
                {
                    failures.pop_front();
                }
                if failures.len() as u32 >= policy.max_failures {
                    cells.breaker.set(BREAKER_TRIPPED);
                    recorder.add("serve.breaker_trips", 1);
                    let alert = format!(
                        "circuit breaker tripped after {} crashes in {:?} (last: {reason})",
                        failures.len(),
                        policy.window
                    );
                    events.log(Level::Error, &name, "supervisor", alert.clone());
                    if let Some(trip) = on_trip.take() {
                        trip(alert);
                    }
                    break;
                }
                // A long healthy incarnation earns a fresh backoff.
                if started.elapsed() >= policy.window {
                    streak = 0;
                }
                let backoff = policy
                    .base_backoff
                    .saturating_mul(1u32 << streak.min(16))
                    .min(policy.max_backoff);
                streak += 1;
                cells.breaker.set(BREAKER_BACKOFF);
                cells.restarts.add(1);
                cells.total_restarts.add(1);
                events.log(
                    Level::Warn,
                    &name,
                    "supervisor",
                    format!("poller crashed ({reason}); restarting in {backoff:?}"),
                );
                sliced_sleep(backoff, &stopped);
                cells.breaker.set(BREAKER_OK);
            }
        })
        .expect("spawn supervisor thread");
    Supervised {
        stop: own_stop,
        handle: Some(handle),
    }
}

/// Run `tick` every `interval` on a dedicated thread until the daemon's
/// `stop` (or the handle) says stop. A panicking tick is caught and
/// counted as `background.panics` and `background.panics.<name>`, and
/// the next tick runs as usual: one poisoned tick must not kill the
/// daemon. The stop flags are checked before every tick and the sleep is
/// sliced, so shutdown stays prompt whatever the interval.
pub(crate) fn spawn_ticker(
    name: &str,
    interval: Duration,
    stop: Arc<AtomicBool>,
    recorder: Recorder,
    mut tick: impl FnMut() + Send + 'static,
) -> Supervised {
    let own_stop = Arc::new(AtomicBool::new(false));
    let thread_own = Arc::clone(&own_stop);
    let name = name.to_string();
    let handle = std::thread::Builder::new()
        .name(format!("tick-{name}"))
        .spawn(move || {
            let stopped = || stop.load(Ordering::Acquire) || thread_own.load(Ordering::Acquire);
            while !stopped() {
                if std::panic::catch_unwind(AssertUnwindSafe(&mut tick)).is_err() {
                    recorder.add("background.panics", 1);
                    recorder.add(&format!("background.panics.{name}"), 1);
                }
                sliced_sleep(interval, &stopped);
            }
        })
        .expect("spawn ticker thread");
    Supervised {
        stop: own_stop,
        handle: Some(handle),
    }
}

/// Sleep `interval` in small slices so a stop request interrupts the
/// wait promptly.
pub(crate) fn sliced_sleep(interval: Duration, stopped: &impl Fn() -> bool) {
    let mut remaining = interval;
    let slice = Duration::from_millis(5);
    while !remaining.is_zero() && !stopped() {
        let nap = remaining.min(slice);
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use typefuse_obs::TelemetryHub;

    fn cells(hub: &TelemetryHub) -> SupervisorCells {
        SupervisorCells {
            breaker: hub.gauge("b"),
            restarts: hub.gauge("r"),
            total_restarts: hub.counter("t"),
        }
    }

    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_failures: 3,
            window: Duration::from_secs(60),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }
    }

    fn wait_until(what: &str, condition: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn gauge_value(hub: &TelemetryHub, key: &str) -> u64 {
        let sample = hub.sample();
        sample
            .gauges
            .get(key)
            .or_else(|| sample.counters.get(key))
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn crashes_restart_until_healthy() {
        let hub = TelemetryHub::new();
        let stop = Arc::new(AtomicBool::new(false));
        let crashes = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&crashes);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        let task = spawn_supervised(
            "s",
            fast_policy(),
            Arc::clone(&stop),
            Recorder::enabled(),
            EventLog::new(16, Level::Debug),
            cells(&hub),
            |_| panic!("breaker must not trip in this test"),
            move |own| {
                if c.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Exit::Crash("injected".to_string());
                }
                d.store(true, Ordering::SeqCst);
                while !own.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Exit::Stop
            },
        );
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        task.join();
        assert_eq!(crashes.load(Ordering::SeqCst), 3, "two crashes, then held");
        assert_eq!(gauge_value(&hub, "r"), 2);
        assert_eq!(gauge_value(&hub, "t"), 2);
    }

    #[test]
    fn repeated_crashes_trip_the_breaker_and_park() {
        let hub = TelemetryHub::new();
        let events = EventLog::new(16, Level::Debug);
        let tripped = Arc::new(AtomicBool::new(false));
        let t = Arc::clone(&tripped);
        let task = spawn_supervised(
            "s",
            fast_policy(),
            Arc::new(AtomicBool::new(false)),
            Recorder::enabled(),
            events.clone(),
            cells(&hub),
            move |reason| {
                assert!(reason.contains("circuit breaker tripped"), "{reason}");
                t.store(true, Ordering::SeqCst);
            },
            |_| panic!("always down"),
        );
        // The supervisor thread exits on its own after the trip; wait
        // for it rather than joining (join would request a stop and
        // could cut the crash accounting short).
        wait_until("breaker trip", || tripped.load(Ordering::SeqCst));
        task.join();
        assert!(tripped.load(Ordering::SeqCst));
        assert_eq!(gauge_value(&hub, "b"), BREAKER_TRIPPED);
        assert!(
            events
                .recent(16)
                .iter()
                .any(|e| e.level == Level::Error && e.span == "supervisor"),
            "trip is an error event"
        );
    }

    /// A ticker counting its ticks into `count`, panicking on the ones
    /// `panics` picks.
    fn ticker(
        stop: &Arc<AtomicBool>,
        rec: &Recorder,
        count: &Arc<AtomicU32>,
        panics: fn(u32) -> bool,
    ) -> Supervised {
        let count = Arc::clone(count);
        let tick = move || {
            if panics(count.fetch_add(1, Ordering::SeqCst)) {
                panic!("this tick dies");
            }
        };
        let interval = Duration::from_millis(1);
        spawn_ticker("flaky", interval, Arc::clone(stop), rec.clone(), tick)
    }

    #[test]
    fn ticks_until_stopped() {
        let count = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let task = ticker(&stop, &Recorder::disabled(), &count, |_| false);
        wait_until("three ticks", || count.load(Ordering::SeqCst) >= 3);
        task.join();
        let settled = count.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(count.load(Ordering::SeqCst), settled, "no ticks after join");
        assert!(
            !stop.load(Ordering::SeqCst),
            "the daemon's flag is untouched"
        );
    }

    #[test]
    fn the_daemons_stop_flag_stops_a_ticker() {
        let count = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let task = ticker(&stop, &Recorder::disabled(), &count, |_| false);
        wait_until("a tick", || count.load(Ordering::SeqCst) > 0);
        stop.store(true, Ordering::Release);
        let settled = count.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            count.load(Ordering::SeqCst) <= settled + 1,
            "it stopped on its own"
        );
        task.join();
    }

    #[test]
    fn panics_are_isolated_and_counted() {
        let (rec, count) = (Recorder::enabled(), Arc::new(AtomicU32::new(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let task = ticker(&stop, &rec, &count, |n| n == 0);
        wait_until("ticks after the panic", || {
            count.load(Ordering::SeqCst) >= 3
        });
        task.join();
        assert_eq!(rec.counter_value("background.panics"), 1);
        assert_eq!(rec.counter_value("background.panics.flaky"), 1);
    }

    #[test]
    fn panics_are_caught_with_their_message() {
        let events = EventLog::new(16, Level::Debug);
        let hub = TelemetryHub::new();
        let policy = SupervisorPolicy {
            max_failures: 1,
            ..fast_policy()
        };
        let task = spawn_supervised(
            "s",
            policy,
            Arc::new(AtomicBool::new(false)),
            Recorder::enabled(),
            events.clone(),
            cells(&hub),
            |_| {},
            |_| panic!("record 7 poisoned the fold"),
        );
        wait_until("trip event", || {
            events
                .recent(16)
                .iter()
                .any(|e| e.message.contains("record 7 poisoned the fold"))
        });
        task.join();
        assert!(
            events
                .recent(16)
                .iter()
                .any(|e| e.message.contains("record 7 poisoned the fold")),
            "panic message surfaces: {:?}",
            events.recent(16)
        );
    }
}
