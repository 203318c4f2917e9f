//! Host CPU steal over time. On a virtual machine the hypervisor can run
//! other guests while this one wants the CPU; `/proc/stat` counts that
//! time as *steal*. A sampler thread records the counters through a run
//! so that each stretch of it can be told apart by how much the host took.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period of the background thread.
const PERIOD: Duration = Duration::from_millis(50);

/// Cumulative steal and wanted CPU ticks of the host, from the first
/// line of `/proc/stat` (`None` where it is not available). Wanted time
/// is the time the guest ran or was ready to run (user, nice, system,
/// irq, softirq and steal), so the steal share does not drop just because
/// the benchmark happened to be idle.
pub fn ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let (user, nice, system, irq, softirq, steal) =
        (f[0], f[1], f[2], *f.get(5)?, *f.get(6)?, *f.get(7)?);
    Some((steal, user + nice + system + irq + softirq + steal))
}

/// Timestamped [`ticks`] readings.
#[derive(Default)]
pub struct StealLog {
    samples: Vec<(Instant, u64, u64)>,
}

impl StealLog {
    #[cfg(test)]
    pub fn from_samples(samples: Vec<(Instant, u64, u64)>) -> StealLog {
        StealLog { samples }
    }

    fn record(&mut self) {
        if let Some((steal, total)) = ticks() {
            self.samples.push((Instant::now(), steal, total));
        }
    }

    /// Share of the wanted CPU time the host stole between `a` and `b`:
    /// from the last sample at or before `a` to the first at or after `b`.
    /// `None` without two samples around the interval that saw CPU time.
    pub fn share(&self, a: Instant, b: Instant) -> Option<f64> {
        let from = self.samples.iter().rev().find(|s| s.0 <= a)?;
        let to = self.samples.iter().find(|s| s.0 >= b)?;
        let total = to.2.checked_sub(from.2).filter(|t| *t > 0)?;
        Some(to.1.saturating_sub(from.1) as f64 / total as f64)
    }
}

/// The sampler thread; [`Sampler::stop`] joins it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<StealLog>,
}

impl Sampler {
    /// Starts sampling; the first sample is taken before this returns.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut log = StealLog::default();
        log.record();
        let handle = std::thread::spawn(move || loop {
            std::thread::sleep(PERIOD);
            log.record();
            if flag.load(Relaxed) {
                return log;
            }
        });
        Sampler { stop, handle }
    }

    /// Takes a last sample (after this call) and returns the log.
    pub fn stop(self) -> StealLog {
        self.stop.store(true, Relaxed);
        self.handle
            .join()
            .expect("the steal sampler does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_spans_the_samples_around_the_interval() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let log = StealLog {
            samples: vec![(at(0), 0, 0), (at(100), 10, 100), (at(200), 60, 200)],
        };
        assert_eq!(log.share(at(0), at(100)), Some(0.1));
        assert_eq!(log.share(at(120), at(200)), Some(0.5));
        assert_eq!(log.share(at(50), at(150)), Some(0.3));
        assert_eq!(log.share(at(150), at(250)), None);
        assert_eq!(StealLog::default().share(at(0), at(1)), None);
    }

    #[test]
    fn sampler_brackets_the_interval_it_ran_across() {
        let Some((_, wanted)) = ticks() else { return };
        let s = Sampler::start();
        let a = Instant::now();
        // Want CPU time until the counters move (they tick every 10 ms).
        while ticks().is_some_and(|(_, w)| w < wanted + 2) && a.elapsed() < Duration::from_secs(5) {
            std::hint::black_box(0u64);
        }
        let b = Instant::now();
        let log = s.stop();
        assert!(log.share(a, b).is_some_and(|x| (0.0..=1.0).contains(&x)));
    }
}
